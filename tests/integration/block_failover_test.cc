// Block-store failover: the full replicated application (BlockStoreServer +
// BlockWorkload) under its acceptance scenarios — healthy-run
// byte-determinism, crash mid-transaction, crash mid-writeback, cold-cache
// takeover latency, reintegration state equality, and the seeded chaos
// sweep at group sizes 2 and 3 (STTCP_BLOCK_SEEDS scales it; the --app
// check lane runs 200), a second failure while the N = 3 leader streams a
// snapshot to a rejoiner, plus simultaneous double failures at N = 3
// (STTCP_MULTI_SEEDS scales them; the --group lane runs 64).
//
// Response-exactness is the invariant everywhere: the oracle inside
// BlockWorkload must never see a mismatched GET, an unpredicted status, a
// reset or a failed session while the plan is survivable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <ostream>
#include <vector>

#include "app/block_server.h"
#include "harness/block_workload.h"
#include "harness/invariants.h"
#include "harness/topology.h"
#include "sttcp/messages.h"

namespace sttcp::harness {
namespace {

using app::BlockStoreConfig;
using app::BlockStoreServer;
using Mode = sttcp::DecisionLog::Mode;

struct Rig {
  Rig(ScenarioConfig scfg, BlockStoreConfig p_cfg, BlockStoreConfig b_cfg,
      BlockWorkloadConfig wcfg)
      : topo(build_figure2(scfg)),
        cell(topo->cell()),
        p_app(cell.primary_stack(), cell.service_port(), p_cfg, Mode::kRecord),
        b_app(cell.backup_stack(), cell.service_port(), b_cfg, Mode::kReplay),
        workload(topo->world(), *topo->host_by_name("client")->stack,
                 topo->host_by_name("client")->ip, cell.connect_addr(), wcfg) {
    cell.primary_endpoint()->set_decision_log(&p_app.decisions());
    cell.backup_endpoint()->set_decision_log(&b_app.decisions());
    cell.primary_endpoint()->set_checkpoint_provider(
        [this] { return p_app.checkpoint(); });
    cell.primary_endpoint()->set_checkpoint_restorer(
        [this](net::BytesView d) { p_app.stage_restore(d); });
    cell.backup_endpoint()->set_checkpoint_provider(
        [this] { return b_app.checkpoint(); });
    cell.backup_endpoint()->set_checkpoint_restorer(
        [this](net::BytesView d) { b_app.stage_restore(d); });
    topo->register_server_app(Node::kPrimary, &p_app);
    topo->register_server_app(Node::kBackup, &b_app);
    // One replay replica per extra group backup (backup2, backup3, ...).
    for (int i = 1; i < cell.backup_count(); ++i) {
      auto app = std::make_unique<BlockStoreServer>(
          cell.backup_stack(i), cell.service_port(), b_cfg, Mode::kReplay);
      BlockStoreServer* raw = app.get();
      sttcp::StTcpEndpoint* ep = cell.backup_endpoint(i);
      ep->set_decision_log(&raw->decisions());
      ep->set_checkpoint_provider([raw] { return raw->checkpoint(); });
      ep->set_checkpoint_restorer([raw](net::BytesView d) { raw->stage_restore(d); });
      topo->register_server_app(i == 1 ? Node::kBackup2 : Node::kBackup3, raw);
      extra_apps.push_back(std::move(app));
    }
  }

  /// Every replica with the host it runs on (primary, backup, backup2, ...).
  std::vector<std::pair<net::Host*, BlockStoreServer*>> replicas() {
    std::vector<std::pair<net::Host*, BlockStoreServer*>> out = {
        {&cell.primary(), &p_app}, {&cell.backup(), &b_app}};
    for (std::size_t i = 0; i < extra_apps.size(); ++i) {
      out.emplace_back(&cell.backup_host(static_cast<int>(i) + 1), extra_apps[i].get());
    }
    return out;
  }

  /// Quiesce the serving replica (flush its dirty pages through the
  /// decision log) and let the final records reach every follower.
  void quiesce() {
    for (auto& [host, app] : replicas()) {
      if (host->alive() && app->decisions().recording()) app->flush_all_dirty();
    }
    topo->run_for(sim::Duration::seconds(1));
  }

  /// Run until the workload drains (plus a TIME_WAIT margin for the
  /// checker's memory audit), bounded by `limit`.
  void run_to_drain(sim::Duration limit) {
    const sim::SimTime deadline = topo->world().now() + limit;
    while (!workload.drained() && topo->world().now() < deadline) {
      topo->run_for(sim::Duration::millis(100));
    }
    topo->run_for(sim::Duration::seconds(3));  // 2 x MSL drain + decision beats
  }

  std::unique_ptr<Topology> topo;
  Cell& cell;
  BlockStoreServer p_app;
  BlockStoreServer b_app;
  std::vector<std::unique_ptr<BlockStoreServer>> extra_apps;
  BlockWorkload workload;
};

BlockWorkloadConfig small_workload(BlockStoreConfig& app_cfg) {
  BlockWorkloadConfig w;
  w.clients = 6;
  w.blocks_per_client = 8;
  w.block_size = app_cfg.block_size;
  w.ops_per_session = 12;
  w.duration = sim::Duration::millis(2500);
  w.think_mean = sim::Duration::millis(10);
  return w;
}

void expect_clean(Rig& rig, const std::vector<Violation>& v) {
  for (const Violation& x : v) ADD_FAILURE() << x.str();
  EXPECT_TRUE(rig.workload.drained());
  EXPECT_GT(rig.workload.stats().responses, 0u);
  EXPECT_EQ(rig.workload.stats().mismatches, 0u);
  // No replica ever fell back to generating its own decisions.
  for (auto& [host, app] : rig.replicas()) {
    EXPECT_EQ(app->store_stats().replay_mismatch, 0u) << host->name();
  }
}

/// After quiesce every surviving replica holds the same store, cache and
/// session state.
void expect_survivors_agree(Rig& rig) {
  const BlockStoreServer* first = nullptr;
  for (auto& [host, app] : rig.replicas()) {
    if (!host->alive()) continue;
    if (first == nullptr) {
      first = app;
      continue;
    }
    EXPECT_EQ(app->store_digest(), first->store_digest()) << host->name();
    EXPECT_EQ(app->state_digest(), first->state_digest()) << host->name();
  }
}

// ---------------------------------------------------------------------------
// Healthy run: the replica is byte-deterministic — every response frame the
// backup computed from the replicated input + decision log is identical to
// what the primary sent, and the quiesced store state matches exactly.
TEST(BlockFailoverTest, HealthyRunIsByteDeterministic) {
  ScenarioConfig scfg;
  scfg.seed = 7;
  BlockStoreConfig acfg;
  Rig rig(std::move(scfg), acfg, acfg, small_workload(acfg));
  InvariantChecker checker(*rig.topo, {});

  rig.workload.start();
  rig.run_to_drain(sim::Duration::seconds(30));
  // Quiesce: push every dirty page through the decision log, let the
  // final kFlush records reach the backup.
  rig.p_app.flush_all_dirty();
  rig.topo->run_for(sim::Duration::seconds(1));

  expect_clean(rig, checker.check(rig.workload));
  EXPECT_EQ(rig.workload.stats().resets, 0u);
  EXPECT_EQ(rig.workload.stats().failed, 0u);
  EXPECT_GT(rig.p_app.store_stats().requests, 0u);
  EXPECT_EQ(rig.p_app.store_stats().requests, rig.b_app.store_stats().requests);
  EXPECT_EQ(rig.p_app.tx_digest(), rig.b_app.tx_digest());
  EXPECT_EQ(rig.p_app.store_digest(), rig.b_app.store_digest());
  EXPECT_EQ(rig.p_app.cache_digest(), rig.b_app.cache_digest());
  EXPECT_EQ(rig.p_app.state_digest(), rig.b_app.state_digest());
  // Pinned literals: primary == backup holds for any build; these fix the
  // pair's exact served history across builds too. Any change to when a
  // decision beat or its ack crosses the wire moves all four digests:
  // responses carry execution timestamps (tx), and the clients' shared
  // workload Rng, the cache's LRU order and eviction draws and the session
  // draws all follow the cross-client execution order (store, cache, state).
  EXPECT_EQ(rig.p_app.store_stats().requests, 168u);
  EXPECT_EQ(rig.workload.stats().responses, 168u);
  EXPECT_EQ(rig.p_app.tx_digest(), 0xd29d7456fa08a483ull);
  EXPECT_EQ(rig.p_app.store_digest(), 0xabd751ef4828044dull);
  EXPECT_EQ(rig.p_app.cache_digest(), 0x7c247941b77ab7f6ull);
  EXPECT_EQ(rig.p_app.state_digest(), 0x83e7b95d029f51eaull);
  // Each decision record crosses the wire once: event beats carry only
  // records not yet sent, and nothing is lost on a healthy run, so only the
  // periodic beats' resends of in-flight records come on top.
  const double appended =
      static_cast<double>(rig.p_app.decisions().stats().appended);
  ASSERT_GT(appended, 0.0);
  EXPECT_LE(static_cast<double>(
                rig.cell.primary_endpoint()->stats().decision_records_sent) /
                appended,
            1.05);
  EXPECT_EQ(rig.topo->world().trace().count("decision_resend"), 0u);
}

// ---------------------------------------------------------------------------
// Crash mid-transaction: the primary dies while sessions are mid-flight.
// The promoted backup must carry every session through — acknowledged
// writes survive, no client sees a reset or an unpredicted status.
TEST(BlockFailoverTest, CrashMidTransactionIsMasked) {
  ScenarioConfig scfg;
  scfg.seed = 11;
  BlockStoreConfig acfg;
  Rig rig(std::move(scfg), acfg, acfg, small_workload(acfg));
  InvariantChecker checker(*rig.topo, {});

  rig.workload.start();
  rig.topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(800)));
  rig.run_to_drain(sim::Duration::seconds(60));

  expect_clean(rig, checker.check(rig.workload));
  EXPECT_EQ(rig.topo->world().trace().count("backup", "takeover"), 1u);
  EXPECT_GT(rig.b_app.store_stats().replay_executed, 0u);
}

// ---------------------------------------------------------------------------
// Crash mid-writeback: the primary dies right after a writeback pass began
// emitting kFlush decisions. The backup's flush replay and the promote-time
// backlog drain must leave the store consistent — same response-exactness
// bar as any other crash point.
TEST(BlockFailoverTest, CrashDuringCacheWritebackIsMasked) {
  ScenarioConfig scfg;
  scfg.seed = 13;
  BlockStoreConfig acfg;
  acfg.writeback_period = sim::Duration::millis(50);
  BlockWorkloadConfig wcfg = small_workload(acfg);
  wcfg.put_prob = 0.7;  // writeback-heavy: keep the dirty queue busy
  Rig rig(std::move(scfg), acfg, acfg, wcfg);
  InvariantChecker checker(*rig.topo, {});

  rig.workload.start();
  // 16 writeback periods in, 100 us past the tick: the kFlush records for
  // that batch are at most one heartbeat from the backup when the axe falls.
  rig.topo->inject(Fault::Crash(Node::kPrimary)
                       .at(sim::Duration::millis(800) + sim::Duration::micros(100)));
  rig.run_to_drain(sim::Duration::seconds(60));

  expect_clean(rig, checker.check(rig.workload));
  EXPECT_EQ(rig.topo->world().trace().count("backup", "takeover"), 1u);
  EXPECT_GT(rig.p_app.store_stats().writebacks, 0u);
}

// ---------------------------------------------------------------------------
// Cold-cache takeover: identical failover, but the promoted backup flushes
// its dirty pages and drops the rest, so post-failover GETs pay the modeled
// device read latency. Correctness must not change; the client-visible
// latency tail and the promoted server's miss count must.
TEST(BlockFailoverTest, ColdBackupCacheCostsLatencyNotCorrectness) {
  // Working set (4 clients x 4 blocks) fits the 16-page cache: after warmup
  // a warm cache misses ~never, so takeover-time misses are the ablation.
  const auto run = [](bool cold, std::uint64_t* misses_after,
                      obs::Histogram* lat) {
    ScenarioConfig scfg;
    scfg.seed = 17;
    BlockStoreConfig acfg;
    BlockStoreConfig b_cfg = acfg;
    b_cfg.drop_cache_on_takeover = cold;
    BlockWorkloadConfig wcfg;
    wcfg.clients = 4;
    wcfg.blocks_per_client = 4;
    wcfg.ops_per_session = 12;
    wcfg.put_prob = 0.2;
    wcfg.delete_prob = 0.0;  // deletes shrink the resident set; keep it full
    wcfg.duration = sim::Duration::millis(2500);
    wcfg.think_mean = sim::Duration::millis(10);
    Rig rig(std::move(scfg), acfg, b_cfg, wcfg);
    InvariantChecker checker(*rig.topo, {});

    rig.workload.start();
    rig.topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(1000)));
    rig.run_to_drain(sim::Duration::seconds(60));

    for (const Violation& v : checker.check(rig.workload)) {
      ADD_FAILURE() << (cold ? "cold: " : "warm: ") << v.str();
    }
    EXPECT_TRUE(rig.workload.drained());
    *misses_after = rig.b_app.store_stats().cache_misses;
    *lat = rig.workload.request_us();
  };

  std::uint64_t warm_misses = 0, cold_misses = 0;
  obs::Histogram warm_lat, cold_lat;
  run(false, &warm_misses, &warm_lat);
  run(true, &cold_misses, &cold_lat);

  // The cold backup re-faults the working set the warm one kept resident.
  EXPECT_GT(cold_misses, warm_misses);
  // Client-visible: each re-fault charges device_read_latency (500 us) to
  // the response release time, fattening the tail beyond the warm run's.
  EXPECT_GT(cold_lat.max(), warm_lat.max());
  EXPECT_GE(cold_lat.max(), 500u);
}

// ---------------------------------------------------------------------------
// Reintegration: primary dies, backup carries the service, primary reboots
// and rejoins via the snapshot (now carrying real payload: device, cache
// with dirty pages, session table, decision cursor). At quiesce the rejoined
// replica's store state is byte-identical to the survivor's.
TEST(BlockFailoverTest, ReintegrationRestoresByteIdenticalStore) {
  ScenarioConfig scfg;
  scfg.seed = 19;
  BlockStoreConfig acfg;
  BlockWorkloadConfig wcfg = small_workload(acfg);
  wcfg.duration = sim::Duration::seconds(5);  // long enough to span the rejoin
  Rig rig(std::move(scfg), acfg, acfg, wcfg);
  InvariantChecker checker(*rig.topo, {});

  rig.workload.start();
  rig.topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(700)));
  rig.topo->inject(Fault::PowerOn(Node::kPrimary).at(sim::Duration::millis(2200)));

  const auto& tr = rig.topo->world().trace();
  const sim::SimTime limit = rig.topo->world().now() + sim::Duration::seconds(12);
  while (tr.count("reintegration_complete") == 0 &&
         rig.topo->world().now() < limit) {
    rig.topo->run_for(sim::Duration::millis(100));
  }
  ASSERT_EQ(tr.count("reintegration_complete"), 1u) << tr.dump();
  rig.run_to_drain(sim::Duration::seconds(60));

  // Quiesce the surviving primary (the old backup) and let its kFlush
  // decisions reach the rejoined replica (the old primary).
  rig.b_app.flush_all_dirty();
  rig.topo->run_for(sim::Duration::seconds(1));

  expect_clean(rig, checker.check(rig.workload));
  EXPECT_EQ(rig.p_app.store_digest(), rig.b_app.store_digest());
  EXPECT_EQ(rig.p_app.cache_digest(), rig.b_app.cache_digest());
  EXPECT_EQ(rig.p_app.state_digest(), rig.b_app.state_digest());
  EXPECT_EQ(rig.p_app.open_sessions(), rig.b_app.open_sessions());
}

// ---------------------------------------------------------------------------
// Rejoin commit gate: the survivor dies right after it commits a rejoin.
// The decisions it made while the snapshot streamed reached the rejoiner
// before it could use them, and the beats re-offering them are lost, so the
// rejoiner's acks lag what the survivor has already released. Committing on
// its first rejoin_ready would let it be promoted without the records behind
// those responses; the survivor must wait until the rejoiner's ack covers
// its commit point.
TEST(BlockFailoverTest, SurvivorCrashRightAfterRejoinCommitIsMasked) {
  ScenarioConfig scfg;
  scfg.seed = 19;
  BlockStoreConfig acfg;
  BlockWorkloadConfig wcfg = small_workload(acfg);
  wcfg.clients = 16;
  wcfg.think_mean = sim::Duration::millis(5);
  Rig rig(std::move(scfg), acfg, acfg, wcfg);

  rig.workload.start();
  rig.topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(700)));
  // Power on inside a burst of sessions, so decisions land mid-snapshot.
  rig.topo->inject(Fault::PowerOn(Node::kPrimary).at(sim::Duration::millis(2010)));

  const auto& tr = rig.topo->world().trace();
  const sim::SimTime limit = rig.topo->world().now() + sim::Duration::seconds(12);
  std::uint64_t released = 0;  // the survivor's highest commit point
  const auto run_until = [&](const char* event) {
    while (tr.count(event) == 0 && rig.topo->world().now() < limit) {
      rig.topo->run_for(sim::Duration::micros(1));
      released = std::max(released, rig.b_app.decisions().commit_through());
    }
    return tr.count(event);
  };
  ASSERT_EQ(run_until("snapshot_applied"), 1u) << tr.dump();
  // The rejoiner's rejoin_ready is on the wire. The survivor's next beats
  // (the ones re-offering the decisions) are lost; its commit datagram,
  // sent when rejoin_ready arrives, is not.
  net::Impairment& uplink = rig.cell.backup_link().impairment();
  uplink.config().oneway_drop[0] = 1.0;
  rig.topo->world().loop().schedule_after(sim::Duration::micros(100), [&uplink] {
    uplink.config().oneway_drop[0] = 0.0;
  });
  ASSERT_EQ(run_until("reintegration_complete"), 1u) << tr.dump();
  rig.topo->inject(Fault::Crash(Node::kBackup));
  // Frames already on the wire still land; then the rejoiner's log is final.
  rig.topo->run_for(sim::Duration::millis(5));
  EXPECT_GE(rig.p_app.decisions().rx_cursor(), released);

  rig.run_to_drain(sim::Duration::seconds(60));
  // The rejoined ex-primary serves the rest. (The checker's pair split-brain
  // rule assumes one takeover, so exactness is asserted on the oracle.)
  EXPECT_EQ(tr.count("primary", "takeover"), 1u) << tr.dump();
  expect_clean(rig, {});
  const BlockWorkload::Stats& st = rig.workload.stats();
  EXPECT_EQ(st.bad_status, 0u);
  EXPECT_EQ(st.resets, 0u);
  EXPECT_EQ(st.failed, 0u);
}

// ---------------------------------------------------------------------------
// Rejoin commit gate under a sustained decision stream: long sessions keep
// drawing decisions past the whole snapshot retry budget. A rejoin_ready
// beat carries an ack at least a round trip old (1 ms links make that 4 ms,
// dozens of decisions), so if the survivor kept committing without the
// rejoiner, every beat would miss the moving commit point and the rejoin
// would be abandoned. Once the rejoiner reports ready it gates commit, so
// the rejoin commits and the pair is fault tolerant again.
TEST(BlockFailoverTest, RejoinCommitsUnderASustainedDecisionStream) {
  ScenarioConfig scfg;
  scfg.seed = 23;
  scfg.link_latency = sim::Duration::millis(1);
  scfg.sttcp.reintegration_retry = sim::Duration::millis(100);
  scfg.sttcp.reintegration_max_attempts = 8;
  BlockStoreConfig acfg;
  BlockWorkloadConfig wcfg = small_workload(acfg);
  wcfg.clients = 24;
  wcfg.think_mean = sim::Duration::millis(2);
  wcfg.ops_per_session = 600;  // one long session per client, ~3.6 s
  wcfg.duration = sim::Duration::millis(100);
  Rig rig(std::move(scfg), acfg, acfg, wcfg);
  InvariantChecker checker(*rig.topo, {});

  rig.workload.start();
  rig.topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(700)));
  rig.topo->inject(Fault::PowerOn(Node::kPrimary).at(sim::Duration::millis(2000)));
  rig.run_to_drain(sim::Duration::seconds(60));

  const auto& tr = rig.topo->world().trace();
  EXPECT_EQ(tr.count("reintegration_abandoned"), 0u);
  ASSERT_EQ(tr.count("reintegration_complete"), 1u) << tr.dump();
  rig.quiesce();
  expect_clean(rig, checker.check(rig.workload));
  expect_survivors_agree(rig);
}

// ---------------------------------------------------------------------------
// Rejoiner silence: from its first rejoin_ready beat the rejoiner's acks gate
// decision commit. If it dies right after that beat, the survivor must give
// the rejoin up once both of its channels miss the liveness deadline —
// responses resume then, not when the snapshot retry budget runs out.
TEST(BlockFailoverTest, RejoinerSilentAfterItsReadyBeatIsAbandoned) {
  ScenarioConfig scfg;
  scfg.seed = 19;
  BlockStoreConfig acfg;
  BlockWorkloadConfig wcfg = small_workload(acfg);
  wcfg.clients = 16;
  wcfg.think_mean = sim::Duration::millis(5);
  wcfg.duration = sim::Duration::seconds(5);
  Rig rig(std::move(scfg), acfg, acfg, wcfg);

  rig.workload.start();
  rig.topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(700)));
  rig.topo->inject(Fault::PowerOn(Node::kPrimary).at(sim::Duration::millis(2010)));

  const auto& tr = rig.topo->world().trace();
  const sim::SimTime limit = rig.topo->world().now() + sim::Duration::seconds(12);
  while (tr.count("snapshot_applied") == 0 && rig.topo->world().now() < limit) {
    rig.topo->run_for(sim::Duration::micros(1));
  }
  ASSERT_EQ(tr.count("snapshot_applied"), 1u) << tr.dump();
  // The ready beat is on the wire; the rejoiner dies before another one.
  rig.topo->inject(Fault::Crash(Node::kPrimary));
  const sim::SimTime crashed_at = rig.topo->world().now();
  const std::uint64_t responses_at_crash = rig.workload.stats().responses;

  rig.run_to_drain(sim::Duration::seconds(60));
  EXPECT_EQ(tr.count("reintegration_complete"), 0u) << tr.dump();
  const auto abandoned = tr.first_time("reintegration_abandoned");
  ASSERT_TRUE(abandoned.has_value()) << tr.dump();
  // The liveness deadline (hb_miss_threshold periods plus the half-period
  // slack every channel check allows), plus one detector tick.
  const sttcp::StTcpConfig& st = rig.topo->config().sttcp;
  EXPECT_LE(*abandoned - crashed_at,
            st.hb_period * st.hb_miss_threshold + st.hb_period / 2 + st.hb_period)
      << tr.dump();
  EXPECT_GT(rig.workload.stats().responses, responses_at_crash);
  expect_clean(rig, {});
  const BlockWorkload::Stats& ws = rig.workload.stats();
  EXPECT_EQ(ws.bad_status, 0u);
  EXPECT_EQ(ws.resets, 0u);
  EXPECT_EQ(ws.failed, 0u);
}

// ---------------------------------------------------------------------------
// Seeded chaos sweep: a random crash (any member, random time, including
// mid-transaction and mid-writeback instants) against a running block
// workload, at group sizes 2 (the pair) and 3 (one replay replica per extra
// backup). Response-exactness with zero client resets, every seed, and every
// surviving replica's store identical at quiesce. STTCP_BLOCK_SEEDS
// overrides the sweep width (the --app lane runs 200 at both sizes).
struct SweepCase {
  int group_size;
  std::uint64_t seed;
};

// Test names carry the seed; the instantiation prefix names the group size.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.seed; }

class BlockChaosSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BlockChaosSweepTest, RandomCrashKeepsResponsesExact) {
  const auto [group_size, seed] = GetParam();
  sim::Rng dice(seed * 6151 + 3);

  ScenarioConfig scfg;
  scfg.seed = seed;
  scfg.extra_backups = group_size - 2;
  BlockStoreConfig acfg;
  BlockWorkloadConfig wcfg = small_workload(acfg);
  Rig rig(std::move(scfg), acfg, acfg, wcfg);
  InvariantChecker checker(*rig.topo, {});

  rig.workload.start();
  Node victim = dice.below(4) == 0 ? Node::kBackup : Node::kPrimary;
  if (victim == Node::kBackup && group_size > 2 && dice.below(2) == 0) {
    victim = Node::kBackup2;
  }
  // Half the schedules pin the crash just past a writeback tick (the
  // mid-writeback window); the rest land anywhere in the active run.
  sim::Duration when;
  if (dice.below(2) == 0) {
    when = acfg.writeback_period * static_cast<int>(dice.range(4, 40)) +
           sim::Duration::micros(dice.range(10, 400));
  } else {
    when = sim::Duration::millis(dice.range(100, 2200));
  }
  SCOPED_TRACE("N=" + std::to_string(group_size) + ": crash " +
               std::string(to_string(victim)) + " at " + when.str() + ", seed " +
               std::to_string(seed));
  rig.topo->inject(Fault::Crash(victim).at(when));
  rig.run_to_drain(sim::Duration::seconds(90));
  rig.quiesce();

  expect_clean(rig, checker.check(rig.workload));
  expect_survivors_agree(rig);
  EXPECT_EQ(rig.workload.stats().resets, 0u);
  // Exactly one failover action at most (none when a backup died).
  const auto& tr = rig.topo->world().trace();
  EXPECT_LE(tr.count("takeover") + tr.count("non_ft_mode"), 1u) << tr.dump();
}

std::uint64_t env_width(const char* name, std::uint64_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return fallback;
}

// Modest default width; the check lane exports 200.
std::vector<SweepCase> sweep_cases(int group_size) {
  std::vector<SweepCase> out;
  for (std::uint64_t seed = 1; seed <= env_width("STTCP_BLOCK_SEEDS", 12); ++seed) {
    out.push_back({group_size, seed});
  }
  return out;
}

std::string seed_name(const ::testing::TestParamInfo<SweepCase>& info) {
  return std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlockChaosSweepTest,
                         ::testing::ValuesIn(sweep_cases(2)), seed_name);
INSTANTIATE_TEST_SUITE_P(Group3, BlockChaosSweepTest,
                         ::testing::ValuesIn(sweep_cases(3)), seed_name);

// ---------------------------------------------------------------------------
// Decision-beat loss. Event beats carry each decision record once, so a lost
// beat leaves the follower a hole; the records after it park above the hole
// and the follower's gap report makes the leader resend from its ack at
// once. The tap below sits on the leader's link: it drops every 5th
// original decision beat to one follower (a beat whose first record was
// never sent to it before, so resends pass) and times every record from its
// first transmission to the first ack from that follower covering it. A
// lost beat repaired only by the next periodic beat waits up to the 200 ms
// heartbeat period. A lost beat that no later beat follows can only be
// repaired that way, so the tap drops beats only in the first 20 ms, while
// the first sessions run back to back.
class DecisionLossTap {
 public:
  DecisionLossTap(Rig& rig, net::Ipv4Addr lossy)
      : world_(rig.topo->world()),
        leader_(rig.cell.primary_ip()),
        lossy_(lossy),
        hb_port_(rig.cell.primary_endpoint()->config().hb_port) {
    rig.cell.primary_link().set_drop_filter(
        [this](const net::Frame& f) { return on_frame(f); });
  }

  std::uint64_t dropped() const { return dropped_; }
  /// Gap-flagged acks that reached the leader from `member`.
  std::uint64_t gap_reports(net::Ipv4Addr member) const {
    const auto it = gap_reports_.find(member.value());
    return it == gap_reports_.end() ? 0 : it->second;
  }
  sim::Duration max_commit_wait() const { return max_wait_; }
  /// Records sent to the lossy follower that it never acked.
  std::size_t unacked() const { return waiting_.size(); }

 private:
  static std::uint32_t be32(const std::uint8_t* p) {
    return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
           (std::uint32_t{p[2]} << 8) | p[3];
  }

  bool on_frame(const net::Frame& f) {
    // Ethernet(14) + IPv4(20, no options) + UDP(8), to the heartbeat port.
    constexpr std::size_t kIp = 14, kUdp = kIp + 20, kPayload = kUdp + 8;
    const std::uint8_t* d = f.data();
    if (f.size() < kPayload || d[12] != 0x08 || d[13] != 0x00 || d[kIp + 9] != 17 ||
        ((d[kUdp + 2] << 8) | d[kUdp + 3]) != hb_port_) {
      return false;
    }
    const auto msg = sttcp::HeartbeatMsg::parse(
        net::BytesView(d + kPayload, f.size() - kPayload));
    if (!msg || !msg->decisions_valid) return false;
    const std::uint32_t src = be32(d + kIp + 12);
    const std::uint32_t dst = be32(d + kIp + 16);
    if (dst == leader_.value()) {
      if (msg->decision_gap) ++gap_reports_[src];
      if (src != lossy_.value()) return false;
      while (!waiting_.empty() && waiting_.begin()->first <= msg->decision_ack) {
        max_wait_ = std::max(max_wait_, world_.now() - waiting_.begin()->second);
        waiting_.erase(waiting_.begin());
      }
      return false;
    }
    if (src != leader_.value() || dst != lossy_.value() || msg->decisions.empty()) {
      return false;
    }
    const bool original = msg->decisions.front().seq > max_sent_;
    for (const sttcp::DecisionRecord& r : msg->decisions) {
      if (r.seq > max_sent_) waiting_.emplace(r.seq, world_.now());
    }
    max_sent_ = std::max(max_sent_, msg->decisions.back().seq);
    if (!original || world_.now() >= kUntil || ++originals_ % kDropEvery != 0) {
      return false;
    }
    ++dropped_;
    return true;
  }

  sim::World& world_;
  net::Ipv4Addr leader_, lossy_;
  std::uint16_t hb_port_;
  static constexpr int kDropEvery = 5;
  static constexpr sim::SimTime kUntil = sim::SimTime::from_ns(20'000'000);
  std::uint64_t max_sent_ = 0, originals_ = 0, dropped_ = 0;
  std::map<std::uint64_t, sim::SimTime> waiting_;  // seq -> first sent
  std::map<std::uint32_t, std::uint64_t> gap_reports_;
  sim::Duration max_wait_;
};

/// Enough clients with short sessions that decision beats follow one
/// another closely: the beat after a lost one exposes the hole.
BlockWorkloadConfig busy_workload(BlockStoreConfig& app_cfg) {
  BlockWorkloadConfig w = small_workload(app_cfg);
  w.clients = 12;
  w.ops_per_session = 40;
  w.think_mean = sim::Duration::millis(2);
  return w;
}

/// Gap resends the leader traced, by the member each one went to.
std::map<std::string, std::size_t> resends_by_member(Rig& rig) {
  std::map<std::string, std::size_t> out;
  for (const sim::TraceEntry& e : rig.topo->world().trace().entries()) {
    if (e.event == "decision_resend") ++out[e.detail];
  }
  return out;
}

TEST(BlockDecisionLossTest, PairResendsALostBeatOnTheGapReport) {
  ScenarioConfig scfg;
  scfg.seed = 7;
  BlockStoreConfig acfg;
  Rig rig(std::move(scfg), acfg, acfg, busy_workload(acfg));
  InvariantChecker checker(*rig.topo, {});
  DecisionLossTap tap(rig, rig.cell.backup_ip());

  rig.workload.start();
  rig.run_to_drain(sim::Duration::seconds(30));
  rig.quiesce();

  expect_clean(rig, checker.check(rig.workload));
  EXPECT_EQ(rig.workload.stats().resets, 0u);
  EXPECT_EQ(rig.workload.stats().failed, 0u);
  EXPECT_EQ(rig.p_app.tx_digest(), rig.b_app.tx_digest());
  EXPECT_EQ(rig.p_app.state_digest(), rig.b_app.state_digest());
  // Beats were lost, the backup's gap reports drew resends to it, and no
  // record waited for the periodic beat.
  EXPECT_GE(tap.dropped(), 10u);
  EXPECT_GE(tap.gap_reports(rig.cell.backup_ip()), 1u);
  const auto resends = resends_by_member(rig);
  EXPECT_EQ(resends.size(), 1u);
  EXPECT_EQ(resends.count("backup"), 1u);
  EXPECT_EQ(tap.unacked(), 0u);
  EXPECT_LT(tap.max_commit_wait(), rig.cell.primary_endpoint()->config().hb_period / 10)
      << tap.max_commit_wait().str();
}

TEST(BlockDecisionLossTest, GroupOfThreeRewindsOnlyTheLossyFollower) {
  ScenarioConfig scfg;
  scfg.seed = 7;
  scfg.extra_backups = 1;
  BlockStoreConfig acfg;
  Rig rig(std::move(scfg), acfg, acfg, busy_workload(acfg));
  InvariantChecker checker(*rig.topo, {});
  // Only beats to backup2 are lost; backup's stream is untouched.
  DecisionLossTap tap(rig, rig.cell.backup_ip(1));

  rig.workload.start();
  rig.run_to_drain(sim::Duration::seconds(30));
  rig.quiesce();

  expect_clean(rig, checker.check(rig.workload));
  EXPECT_EQ(rig.workload.stats().resets, 0u);
  EXPECT_EQ(rig.workload.stats().failed, 0u);
  expect_survivors_agree(rig);
  EXPECT_GE(tap.dropped(), 10u);
  EXPECT_GE(tap.gap_reports(rig.cell.backup_ip(1)), 1u);
  EXPECT_EQ(tap.gap_reports(rig.cell.backup_ip(0)), 0u);
  // Every resend went to the follower that lost beats.
  const auto resends = resends_by_member(rig);
  EXPECT_EQ(resends.size(), 1u);
  EXPECT_EQ(resends.count("backup2"), 1u);
  EXPECT_EQ(tap.unacked(), 0u);
  EXPECT_LT(tap.max_commit_wait(), rig.cell.primary_endpoint()->config().hb_period / 10)
      << tap.max_commit_wait().str();
}

// ---------------------------------------------------------------------------
// Healthy run at N = 3: both followers replay the leader's decisions, every
// response is served, and all three stores agree at quiesce.
TEST(BlockFailoverTest, HealthyGroupOfThreeServesEveryResponse) {
  ScenarioConfig scfg;
  scfg.seed = 7;
  scfg.extra_backups = 1;
  BlockStoreConfig acfg;
  Rig rig(std::move(scfg), acfg, acfg, small_workload(acfg));
  InvariantChecker checker(*rig.topo, {});

  rig.workload.start();
  rig.run_to_drain(sim::Duration::seconds(30));
  rig.quiesce();

  expect_clean(rig, checker.check(rig.workload));
  EXPECT_EQ(rig.workload.stats().resets, 0u);
  EXPECT_EQ(rig.workload.stats().failed, 0u);
  EXPECT_EQ(rig.p_app.store_stats().requests, rig.b_app.store_stats().requests);
  EXPECT_EQ(rig.p_app.store_stats().requests,
            rig.extra_apps[0]->store_stats().requests);
  EXPECT_EQ(rig.p_app.tx_digest(), rig.extra_apps[0]->tx_digest());
  EXPECT_EQ(rig.p_app.state_digest(), rig.extra_apps[0]->state_digest());
  expect_survivors_agree(rig);
}

// ---------------------------------------------------------------------------
// A record only one follower holds: rank 1's NIC drops out just before the
// leader dies, so rank 2 alone receives the leader's last decisions. Rank 2
// must not consume them (rank 1 never acked them), and once rank 1 is
// promoted with a shorter prefix rank 2 must drop them — rank 1 renumbers
// those seqs with its own, different choices.
TEST(BlockFailoverTest, RecordHeldByOneFollowerIsNeverConsumedAlone) {
  for (const std::uint64_t seed : {3u, 5u, 9u}) {
    ScenarioConfig scfg;
    scfg.seed = seed;
    scfg.extra_backups = 1;
    BlockStoreConfig acfg;
    BlockWorkloadConfig wcfg = small_workload(acfg);
    wcfg.clients = 12;
    wcfg.ops_per_session = 40;
    wcfg.think_mean = sim::Duration::millis(2);
    Rig rig(std::move(scfg), acfg, acfg, wcfg);
    InvariantChecker checker(*rig.topo, {});
    SCOPED_TRACE("seed " + std::to_string(seed));

    rig.workload.start();
    // Mid-run, while decisions flow: rank 1 goes deaf, the leader dies a
    // few decisions later, rank 1 hears again in time to be promoted.
    while (rig.p_app.decisions().last_seq() < 300) {
      rig.topo->run_for(sim::Duration::micros(200));
    }
    const sim::Duration now = rig.topo->world().now() - sim::SimTime();
    rig.topo->inject(Fault::NicFailure(Node::kBackup).at(now));
    rig.topo->inject(Fault::Crash(Node::kPrimary).at(now + sim::Duration::millis(5)));
    rig.topo->inject(
        Fault::NicRestore(Node::kBackup).at(now + sim::Duration::millis(150)));
    rig.topo->run_for(sim::Duration::millis(20));
    // Rank 2 holds decisions rank 1 never received, and has not used them.
    const sttcp::DecisionLog& rank2 = rig.extra_apps[0]->decisions();
    EXPECT_GT(rank2.rx_cursor(), rig.b_app.decisions().rx_cursor());
    EXPECT_LE(rank2.consumed_through(), rig.b_app.decisions().rx_cursor());

    rig.run_to_drain(sim::Duration::seconds(90));
    rig.quiesce();

    expect_clean(rig, checker.check(rig.workload));
    expect_survivors_agree(rig);
    EXPECT_EQ(rig.workload.stats().resets, 0u);
    EXPECT_EQ(rig.topo->world().trace().count("backup", "promoted"), 1u);
  }
}

// ---------------------------------------------------------------------------
// A second failure while the leader streams a snapshot to a rejoining
// follower (rank 1 crashes early and is powered back on while long sessions
// run; the failure lands as the transfer starts).
class MidSnapshotRig {
 public:
  explicit MidSnapshotRig(std::uint64_t seed)
      : rig(config(seed), acfg, acfg, workload(acfg)), checker(*rig.topo, {}) {}

  /// Run until the leader has started the transfer; returns that instant.
  sim::Duration start_transfer() {
    rig.workload.start();
    rig.topo->inject(Fault::Crash(Node::kBackup).at(sim::Duration::millis(50)));
    rig.topo->inject(Fault::PowerOn(Node::kBackup).at(sim::Duration::millis(1000)));
    const auto& tr = rig.topo->world().trace();
    const sim::SimTime limit = rig.topo->world().now() + sim::Duration::seconds(6);
    while (tr.count("primary", "reintegration_start") == 0 &&
           rig.topo->world().now() < limit) {
      rig.topo->run_for(sim::Duration::micros(50));
    }
    return rig.topo->world().now() - sim::SimTime();
  }

  void finish() {
    rig.run_to_drain(sim::Duration::seconds(90));
    rig.quiesce();
    expect_clean(rig, checker.check(rig.workload));
    expect_survivors_agree(rig);
    EXPECT_EQ(rig.workload.stats().resets, 0u);
  }

  static ScenarioConfig config(std::uint64_t seed) {
    ScenarioConfig scfg;
    scfg.seed = seed;
    scfg.extra_backups = 1;
    return scfg;
  }
  static BlockWorkloadConfig workload(BlockStoreConfig& acfg) {
    BlockWorkloadConfig wcfg = small_workload(acfg);
    wcfg.clients = 12;
    wcfg.ops_per_session = 800;  // sessions span the rejoin
    wcfg.think_mean = sim::Duration::millis(2);
    wcfg.duration = sim::Duration::millis(500);
    return wcfg;
  }

  BlockStoreConfig acfg;
  Rig rig;
  InvariantChecker checker;
};

// The leader dies mid-transfer. The other follower is still live, so every
// response the leader released during the transfer must already have been
// acked by it: the survivor is promoted with a prefix that holds every
// record behind those responses. rank 2 goes deaf as the transfer starts
// and the leader dies 2 ms later; responses released in that window
// without rank 2's ack would carry decisions the promoted rank 2 re-decides
// with fresh values.
TEST(BlockFailoverTest, LeaderDyingMidSnapshotLosesNoCommittedDecision) {
  for (const std::uint64_t seed : {4u, 6u, 11u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MidSnapshotRig m(seed);
    const sim::Duration now = m.start_transfer();
    ASSERT_EQ(m.rig.topo->world().trace().count("primary", "reintegration_start"), 1u);
    m.rig.topo->inject(Fault::NicFailure(Node::kBackup2).at(now));
    m.rig.topo->inject(Fault::Crash(Node::kPrimary).at(now + sim::Duration::millis(2)));
    m.rig.topo->inject(
        Fault::NicRestore(Node::kBackup2).at(now + sim::Duration::millis(150)));
    // Just before the crash: the leader is still streaming the snapshot,
    // holds decisions rank 2 never received, and has released none of them.
    m.rig.topo->run_for(sim::Duration::micros(1990));
    ASSERT_EQ(m.rig.cell.primary_endpoint()->mode(),
              sttcp::StTcpEndpoint::Mode::kReintegrating);
    const sttcp::DecisionLog& rank2 = m.rig.extra_apps[0]->decisions();
    EXPECT_GT(m.rig.p_app.decisions().last_seq(), rank2.rx_cursor());
    EXPECT_LE(m.rig.p_app.decisions().commit_through(), rank2.rx_cursor());

    m.finish();
    EXPECT_EQ(m.rig.topo->world().trace().count("backup2", "promoted"), 1u);
  }
}

// The other follower dies mid-transfer. The leader, left with only the
// rejoiner, commits on its own again, finishes the transfer and keeps
// every response exact.
TEST(BlockFailoverTest, FollowerDyingMidSnapshotLeavesLeaderServing) {
  for (const std::uint64_t seed : {4u, 6u, 11u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MidSnapshotRig m(seed);
    const sim::Duration now = m.start_transfer();
    ASSERT_EQ(m.rig.topo->world().trace().count("primary", "reintegration_start"), 1u);
    m.rig.topo->inject(Fault::Crash(Node::kBackup2).at(now + sim::Duration::millis(1)));
    m.rig.topo->run_for(sim::Duration::micros(990));
    ASSERT_EQ(m.rig.cell.primary_endpoint()->mode(),
              sttcp::StTcpEndpoint::Mode::kReintegrating);

    m.finish();
    const auto& tr = m.rig.topo->world().trace();
    EXPECT_EQ(tr.count("takeover"), 0u);
    EXPECT_EQ(tr.count("backup", "rejoin_complete"), 1u) << tr.dump();
    EXPECT_TRUE(m.rig.cell.primary_endpoint()->is_group_leader());
  }
}

// ---------------------------------------------------------------------------
// Simultaneous double failures at N = 3 (FaultPlan::MultiFailure): the
// leader and a backup, or both backups, die at one instant. The survivor
// masks every schedule response-exactly — in particular a record only one
// follower held can never be consumed there and then renumbered by the
// other. STTCP_MULTI_SEEDS overrides the width (the --group lane
// runs 64).
class BlockMultiFailureTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlockMultiFailureTest, DoubleFailureAtNThreeIsMasked) {
  const std::uint64_t seed = GetParam();
  ScenarioConfig scfg;
  scfg.seed = seed;
  scfg.extra_backups = 1;
  BlockStoreConfig acfg;
  BlockWorkloadConfig wcfg = small_workload(acfg);
  Rig rig(std::move(scfg), acfg, acfg, wcfg);
  InvariantChecker checker(*rig.topo, {});

  const FaultPlan plan = FaultPlan::MultiFailure(seed, 2);
  SCOPED_TRACE("seed " + std::to_string(seed) + ": " + plan.str());
  rig.workload.start();
  rig.topo->inject(plan);
  rig.run_to_drain(sim::Duration::seconds(90));
  rig.quiesce();

  expect_clean(rig, checker.check(rig.workload));
  expect_survivors_agree(rig);
  EXPECT_EQ(rig.workload.stats().resets, 0u);
  EXPECT_EQ(rig.workload.stats().failed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockMultiFailureTest,
    ::testing::Range<std::uint64_t>(1, env_width("STTCP_MULTI_SEEDS", 6) + 1));

}  // namespace
}  // namespace sttcp::harness
