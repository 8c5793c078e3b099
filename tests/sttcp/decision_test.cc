// DecisionLog unit tests: record-side commit gating, replay-side ordered
// ingest (parking, dedup, stale drop), promotion gap semantics and the
// checkpoint cursor jump. These pin the channel's contract down in
// isolation so the block-store integration failures implicate the
// application, not the log.
#include <gtest/gtest.h>

#include <vector>

#include "sttcp/decision.h"

namespace sttcp::sttcp {
namespace {

using Mode = DecisionLog::Mode;

DecisionRecord rec(std::uint64_t seq, DecisionKind kind, std::uint64_t value) {
  DecisionRecord r;
  r.seq = seq;
  r.kind = static_cast<std::uint8_t>(kind);
  r.value = value;
  return r;
}

TEST(DecisionLogTest, RecordAppendsAndCommitFollowsPeerAck) {
  DecisionLog log(Mode::kRecord);
  int commits = 0;
  log.set_commit_hook([&] { ++commits; });

  EXPECT_EQ(log.choose(DecisionKind::kTime, [] { return 111u; }), 111u);
  EXPECT_EQ(log.choose(DecisionKind::kEvict, [] { return 7u; }), 7u);
  EXPECT_EQ(log.last_seq(), 2u);
  // Not standalone: nothing may be released until the peer acks.
  EXPECT_EQ(log.commit_through(), 0u);
  EXPECT_EQ(commits, 0);
  ASSERT_EQ(log.unacked(10).size(), 2u);
  EXPECT_EQ(log.unacked(10)[0].seq, 1u);
  EXPECT_EQ(log.unacked(1).size(), 1u);  // cap honoured

  log.on_peer_ack(1);
  EXPECT_EQ(log.commit_through(), 1u);
  EXPECT_EQ(commits, 1);
  ASSERT_EQ(log.unacked(10).size(), 1u);
  EXPECT_EQ(log.unacked(10)[0].seq, 2u);

  // Regressive or duplicate acks are ignored silently.
  log.on_peer_ack(1);
  log.on_peer_ack(0);
  EXPECT_EQ(commits, 1);

  log.on_peer_ack(2);
  EXPECT_EQ(log.commit_through(), 2u);
  EXPECT_TRUE(log.unacked(10).empty());
  EXPECT_EQ(log.stats().appended, 2u);
}

TEST(DecisionLogTest, StandaloneCommitsEveryChoiceImmediately) {
  DecisionLog log(Mode::kRecord);
  int commits = 0;
  log.set_commit_hook([&] { ++commits; });

  log.set_standalone(true, /*retain=*/false);
  EXPECT_EQ(commits, 1);  // the transition itself advances the gate
  log.choose(DecisionKind::kTime, [] { return 5u; });
  EXPECT_EQ(log.commit_through(), log.last_seq());
  EXPECT_EQ(commits, 2);
  // retain=false: nothing is kept for a rejoiner.
  EXPECT_TRUE(log.unacked(10).empty());
}

TEST(DecisionLogTest, StandaloneRetainKeepsRecordsForRejoiner) {
  DecisionLog log(Mode::kRecord);
  log.set_standalone(true, /*retain=*/true);
  log.choose(DecisionKind::kSession, [] { return 42u; });
  log.choose(DecisionKind::kTime, [] { return 43u; });
  // Committed immediately, yet still queued for the future peer.
  EXPECT_EQ(log.commit_through(), 2u);
  EXPECT_EQ(log.unacked(10).size(), 2u);
}

TEST(DecisionLogTest, RejoinerPinsRecordsButNotCommit) {
  // A leader with one live follower and a rejoiner restored at seq 1.
  DecisionLog log(Mode::kRecord);
  for (int i = 0; i < 4; ++i) log.choose(DecisionKind::kTime, [] { return 1u; });

  // The follower holds 1..3: commit follows it, but the rejoiner (ack 1)
  // still needs 2..4, so they stay in the retransmission window.
  log.on_peer_ack(3, /*held=*/1);
  EXPECT_EQ(log.commit_through(), 3u);
  EXPECT_EQ(log.shared_through(), 3u);
  ASSERT_EQ(log.unacked(10).size(), 3u);
  EXPECT_EQ(log.unacked(10).front().seq, 2u);
  // Each member is offered only what lies above its own ack.
  ASSERT_EQ(log.unacked(10, /*after=*/3).size(), 1u);
  EXPECT_EQ(log.unacked(10, 3).front().seq, 4u);
  EXPECT_EQ(log.unacked(1, 1).front().seq, 2u);  // cap honoured

  // The rejoiner catches up: the window trims, commit does not regress.
  log.on_peer_ack(3, /*held=*/3);
  EXPECT_EQ(log.commit_through(), 3u);
  ASSERT_EQ(log.unacked(10).size(), 1u);
  EXPECT_EQ(log.unacked(10).front().seq, 4u);
}

TEST(DecisionLogTest, ReplayIngestsInOrderAndConsumesByKind) {
  DecisionLog log(Mode::kReplay);
  int ingests = 0;
  log.set_ingest_hook([&] { ++ingests; });

  EXPECT_TRUE(log.ingest({rec(1, DecisionKind::kOrder, 100),
                          rec(2, DecisionKind::kTime, 200)}));
  EXPECT_EQ(ingests, 1);
  EXPECT_EQ(log.rx_cursor(), 2u);
  ASSERT_NE(log.peek(), nullptr);
  EXPECT_EQ(log.peek()->seq, 1u);
  ASSERT_NE(log.peek_ahead(1), nullptr);
  EXPECT_EQ(log.peek_ahead(1)->seq, 2u);
  EXPECT_EQ(log.peek_ahead(2), nullptr);

  // Kind mismatch leaves the queue untouched.
  std::uint64_t v = 0;
  EXPECT_FALSE(log.try_take(DecisionKind::kEvict, &v));
  EXPECT_EQ(log.pending_replay(), 2u);
  EXPECT_TRUE(log.try_take(DecisionKind::kOrder, &v));
  EXPECT_EQ(v, 100u);
  EXPECT_TRUE(log.try_take(DecisionKind::kTime, &v));
  EXPECT_EQ(v, 200u);
  EXPECT_EQ(log.pending_replay(), 0u);
  EXPECT_EQ(log.stats().replayed, 2u);
}

TEST(DecisionLogTest, IngestParksGapsAndUnparksWhenHoleFills) {
  DecisionLog log(Mode::kReplay);
  int ingests = 0;
  log.set_ingest_hook([&] { ++ingests; });

  // Seq 3 arrives first (a lost heartbeat): parked, no cursor movement.
  EXPECT_FALSE(log.ingest({rec(3, DecisionKind::kEvict, 33)}));
  EXPECT_EQ(ingests, 0);
  EXPECT_EQ(log.rx_cursor(), 0u);
  EXPECT_EQ(log.peek(), nullptr);

  EXPECT_TRUE(log.ingest({rec(1, DecisionKind::kOrder, 11)}));
  EXPECT_EQ(log.rx_cursor(), 1u);

  // Filling seq 2 unparks 3: the cursor jumps over both.
  EXPECT_TRUE(log.ingest({rec(2, DecisionKind::kTime, 22)}));
  EXPECT_EQ(log.rx_cursor(), 3u);
  EXPECT_EQ(log.pending_replay(), 3u);
  EXPECT_EQ(log.stats().ingested, 3u);
}

TEST(DecisionLogTest, GapIsReportedOncePerAckPoint) {
  DecisionLog log(Mode::kReplay);
  EXPECT_FALSE(log.take_gap_report());  // nothing parked
  log.ingest({rec(1, DecisionKind::kOrder, 1)});
  EXPECT_FALSE(log.take_gap_report());

  // Seq 2 lost: 3 parks above the hole and draws one report; 4 parks at the
  // same ack point and draws none (the resend is already on its way).
  log.ingest({rec(3, DecisionKind::kTime, 3)});
  EXPECT_TRUE(log.take_gap_report());
  log.ingest({rec(4, DecisionKind::kTime, 4)});
  EXPECT_FALSE(log.take_gap_report());

  // The resend fills the hole: nothing is parked, nothing to report.
  log.ingest({rec(2, DecisionKind::kTime, 2)});
  EXPECT_EQ(log.rx_cursor(), 4u);
  EXPECT_FALSE(log.take_gap_report());

  // A later loss is a new ack point: reported again.
  log.ingest({rec(6, DecisionKind::kTime, 6)});
  EXPECT_TRUE(log.take_gap_report());

  // A restored checkpoint forgets parked records and past reports.
  DecisionLog donor(Mode::kRecord);
  for (int i = 0; i < 5; ++i) donor.choose(DecisionKind::kTime, [] { return 0u; });
  ASSERT_TRUE(log.restore(donor.serialize()));
  EXPECT_FALSE(log.take_gap_report());
  log.ingest({rec(8, DecisionKind::kTime, 8)});
  EXPECT_TRUE(log.take_gap_report());
}

TEST(DecisionLogTest, IngestDropsDuplicatesAndStaleRecords) {
  DecisionLog log(Mode::kReplay);
  log.ingest({rec(1, DecisionKind::kOrder, 1), rec(2, DecisionKind::kTime, 2)});
  std::uint64_t v = 0;
  ASSERT_TRUE(log.try_take(DecisionKind::kOrder, &v));

  // Seq 2 is still queued -> duplicate; seq 1 is consumed -> stale.
  log.ingest({rec(2, DecisionKind::kTime, 2)});
  EXPECT_EQ(log.stats().duplicates, 1u);
  log.ingest({rec(1, DecisionKind::kOrder, 1)});
  EXPECT_EQ(log.stats().stale, 1u);
  // A parked record re-sent is a duplicate too.
  log.ingest({rec(9, DecisionKind::kFlush, 9)});
  log.ingest({rec(9, DecisionKind::kFlush, 9)});
  EXPECT_EQ(log.stats().duplicates, 2u);
  EXPECT_EQ(log.pending_replay(), 1u);
}

TEST(DecisionLogTest, PromoteKeepsContiguousPrefixAndDropsPastGap) {
  DecisionLog log(Mode::kReplay);
  // 1,2 contiguous; 4 parked behind the missing 3. The ack the dead primary
  // saw never covered 4, so no released response can depend on it.
  log.ingest({rec(1, DecisionKind::kOrder, 10), rec(2, DecisionKind::kTime, 20),
              rec(4, DecisionKind::kEvict, 40)});
  int promote_hooks = 0;
  bool commit_after_promote = false;
  log.set_promote_hook([&] { ++promote_hooks; });
  log.set_commit_hook([&] { commit_after_promote = promote_hooks > 0; });

  log.promote();
  EXPECT_TRUE(log.recording());
  EXPECT_EQ(promote_hooks, 1);
  EXPECT_TRUE(commit_after_promote);  // promote fires promote THEN commit
  EXPECT_EQ(log.stats().promote_kept, 2u);
  EXPECT_EQ(log.stats().promote_dropped, 1u);
  EXPECT_EQ(log.pending_replay(), 2u);
  EXPECT_TRUE(log.standalone());

  // choose() drains the backlog on kind match before generating anything.
  EXPECT_EQ(log.choose(DecisionKind::kOrder, [] { return 999u; }), 10u);
  EXPECT_EQ(log.choose(DecisionKind::kTime, [] { return 999u; }), 20u);
  // Backlog empty: fresh choices number above everything ever seen (4).
  EXPECT_EQ(log.choose(DecisionKind::kSession, [] { return 77u; }), 77u);
  EXPECT_EQ(log.last_seq(), 5u);
  EXPECT_EQ(log.commit_through(), 5u);  // standalone
  EXPECT_EQ(promote_hooks, 1);
}

TEST(DecisionLogTest, ConsumeLimitHoldsBackRecordsNotYetShared) {
  DecisionLog log(Mode::kReplay);
  int pumps = 0;
  log.set_ingest_hook([&] { ++pumps; });
  log.ingest({rec(1, DecisionKind::kTime, 10), rec(2, DecisionKind::kTime, 20)});
  EXPECT_EQ(log.rx_cursor(), 2u);  // the ack covers both: both are held

  // The leader says only seq 1 is held by every live member.
  log.set_consume_limit(1);
  std::uint64_t v = 0;
  EXPECT_TRUE(log.try_take(DecisionKind::kTime, &v));
  EXPECT_EQ(v, 10u);
  EXPECT_EQ(log.peek(), nullptr);
  EXPECT_FALSE(log.try_take(DecisionKind::kTime, &v));

  // Raising the limit re-pumps the application.
  const int before = pumps;
  log.set_consume_limit(2);
  EXPECT_EQ(pumps, before + 1);
  EXPECT_TRUE(log.try_take(DecisionKind::kTime, &v));
  EXPECT_EQ(v, 20u);
}

TEST(DecisionLogTest, TruncateAboveDropsUnconsumedRecordsOnly) {
  DecisionLog log(Mode::kReplay);
  log.ingest({rec(1, DecisionKind::kTime, 1), rec(2, DecisionKind::kTime, 2),
              rec(3, DecisionKind::kTime, 3), rec(5, DecisionKind::kTime, 5)});
  std::uint64_t v = 0;
  ASSERT_TRUE(log.try_take(DecisionKind::kTime, &v));
  ASSERT_TRUE(log.try_take(DecisionKind::kTime, &v));
  EXPECT_EQ(log.consumed_through(), 2u);

  // A new leader kept only seq <= 1: consumed records stay consumed, the
  // queued seq 3 and the parked seq 5 go.
  log.truncate_above(1);
  EXPECT_EQ(log.rx_cursor(), 2u);
  EXPECT_EQ(log.peek(), nullptr);
  // Its numbering continues at 3 with different values, accepted as new.
  log.ingest({rec(3, DecisionKind::kTime, 33), rec(4, DecisionKind::kTime, 44)});
  EXPECT_EQ(log.rx_cursor(), 4u);
  ASSERT_TRUE(log.try_take(DecisionKind::kTime, &v));
  EXPECT_EQ(v, 33u);
}

TEST(DecisionLogTest, PromoteWithFollowersReoffersPrefixAndWaitsForAcks) {
  DecisionLog log(Mode::kReplay);
  log.ingest({rec(1, DecisionKind::kTime, 1), rec(2, DecisionKind::kTime, 2),
              rec(3, DecisionKind::kTime, 3), rec(6, DecisionKind::kTime, 6)});
  std::uint64_t v = 0;
  ASSERT_TRUE(log.try_take(DecisionKind::kTime, &v));

  log.promote(/*followers=*/true);
  EXPECT_TRUE(log.recording());
  EXPECT_FALSE(log.standalone());
  EXPECT_EQ(log.kept_prefix(), 3u);
  EXPECT_EQ(log.shared_through(), 3u);
  // The unconsumed kept prefix is offered again; nothing is committed yet.
  const auto offered = log.unacked(10);
  ASSERT_EQ(offered.size(), 2u);
  EXPECT_EQ(offered[0].seq, 2u);
  EXPECT_EQ(offered[1].seq, 3u);
  EXPECT_EQ(log.commit_through(), 0u);
  // Fresh numbering resumes right after the prefix, not above the parked 6.
  log.choose(DecisionKind::kTime, [] { return 2u; });  // drains seq 2
  log.choose(DecisionKind::kTime, [] { return 3u; });  // drains seq 3
  log.choose(DecisionKind::kTime, [] { return 77u; });
  EXPECT_EQ(log.last_seq(), 4u);
  log.on_peer_ack(4);
  EXPECT_EQ(log.commit_through(), 4u);
  EXPECT_EQ(log.shared_through(), 4u);
}

TEST(DecisionLogTest, PromoteIsIdempotent) {
  DecisionLog log(Mode::kReplay);
  log.ingest({rec(1, DecisionKind::kOrder, 10)});
  log.promote();
  const auto kept = log.stats().promote_kept;
  log.promote();  // already recording: no-op
  EXPECT_EQ(log.stats().promote_kept, kept);
  EXPECT_EQ(log.pending_replay(), 1u);
}

TEST(DecisionLogTest, CheckpointCursorMakesRestoredReplicaDropOldRecords) {
  // Primary checkpoints after 5 decisions; the rejoiner restores that blob
  // and must treat heartbeat-retransmitted seqs <= 5 as already folded in.
  DecisionLog primary(Mode::kRecord);
  for (int i = 0; i < 5; ++i) {
    primary.choose(DecisionKind::kTime, [&] { return 1000u + i; });
  }
  const net::Bytes blob = primary.serialize();

  DecisionLog rejoiner(Mode::kReplay);
  ASSERT_TRUE(rejoiner.restore(blob));
  EXPECT_EQ(rejoiner.rx_cursor(), 5u);
  rejoiner.ingest({rec(4, DecisionKind::kTime, 1003)});
  EXPECT_EQ(rejoiner.stats().stale, 1u);
  EXPECT_EQ(rejoiner.pending_replay(), 0u);
  // The next live decision slots straight in.
  EXPECT_TRUE(rejoiner.ingest({rec(6, DecisionKind::kEvict, 66)}));
  EXPECT_EQ(rejoiner.rx_cursor(), 6u);

  // Garbage blobs are rejected, not thrown.
  EXPECT_FALSE(rejoiner.restore(net::BytesView()));
}

TEST(DecisionLogTest, ResetForgetsEverything) {
  DecisionLog log(Mode::kReplay);
  log.ingest({rec(1, DecisionKind::kOrder, 1)});
  log.promote();
  log.reset(Mode::kReplay);
  EXPECT_FALSE(log.recording());
  EXPECT_EQ(log.pending_replay(), 0u);
  EXPECT_EQ(log.rx_cursor(), 0u);
  EXPECT_FALSE(log.standalone());
  EXPECT_TRUE(log.ingest({rec(1, DecisionKind::kTime, 9)}));
}

TEST(DecisionLogTest, FlushHookFiresOnRequest) {
  DecisionLog log(Mode::kRecord);
  int flushes = 0;
  log.set_flush_hook([&] { ++flushes; });
  log.request_flush();
  log.request_flush();
  EXPECT_EQ(flushes, 2);
}

}  // namespace
}  // namespace sttcp::sttcp
