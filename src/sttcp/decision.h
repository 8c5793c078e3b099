// Logged-decision channel: the determinism backbone for stateful
// applications (docs/APPLICATION.md).
//
// ST-TCP replicates the INPUT stream; the application must derive every
// output byte from it deterministically. A real application cannot: cache
// eviction victims, writeback scheduling, session-id draws and timestamps
// are all invisible to the byte stream. The LLFT line of work (PAPERS.md)
// closes the gap by logging each such choice on the primary and replaying
// the log on the backup. This class is that channel's endpoint-agnostic
// core: the primary appends DecisionRecords as it makes choices, the
// StTcpEndpoint piggybacks them on heartbeats (messages.h, the 0x40 header
// flag) — each record once, again only on a gap report or a periodic beat —
// and the backup consumes them in sequence order.
//
// Output commit: a primary response may encode a decision the backup never
// received — if the primary then dies, the promoted backup would re-decide
// differently and the client would observe two histories. The application
// therefore holds response bytes until commit_through() covers every
// decision the response depends on (the backup's cumulative ack, carried on
// the same heartbeat block). In standalone mode (no live peer: non-FT or
// post-takeover) everything commits immediately.
//
// Promotion: a backup taking over keeps the contiguous prefix of ingested,
// not-yet-consumed records — the dead primary may have released responses
// built from them, so they MUST still be replayed — and drops everything
// after the first sequence gap: a gap means the cumulative ack never covered
// those records, so the output-commit gate provably kept every dependent
// response inside the dead primary.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "net/bytes.h"

namespace sttcp::sttcp {

/// What kind of nondeterministic choice a record pins down. The log itself
/// is application-agnostic; these kinds belong to app::BlockStoreServer but
/// live here so the wire codec and tooling can name them.
enum class DecisionKind : std::uint8_t {
  kSession = 1,  // session-id draw (value = the id)
  kTime = 2,     // response timestamp (value = microseconds)
  kOrder = 3,    // cross-connection execution order (value = client key)
  kEvict = 4,    // cache eviction victim (value = block id)
  kFlush = 5,    // writeback batch (value = page count)
};

const char* to_string(DecisionKind k);

struct DecisionRecord {
  std::uint64_t seq = 0;  // 1-based, contiguous per primary incarnation
  std::uint8_t kind = 0;  // DecisionKind
  std::uint64_t value = 0;

  /// Wire size inside the heartbeat decision block: kind(1) value(8). The
  /// seq is implicit — a block's records are contiguous from its base.
  static constexpr std::size_t kWireSize = 9;
};

class DecisionLog {
 public:
  enum class Mode {
    kRecord,  // primary: generate choices, append, await acks
    kReplay,  // backup: ingest from heartbeats, consume in order
  };

  struct Stats {
    std::uint64_t appended = 0;  // records generated (record mode)
    std::uint64_t replayed = 0;  // records consumed (replay mode)
    std::uint64_t ingested = 0;  // records accepted from the peer
    std::uint64_t duplicates = 0;    // ingests dropped as already-seen
    std::uint64_t stale = 0;         // ingests below the replay cursor
    std::uint64_t promote_kept = 0;  // contiguous prefix kept at promotion
    std::uint64_t promote_dropped = 0;  // post-gap records dropped
  };

  explicit DecisionLog(Mode mode) : mode_(mode) { reset(mode); }

  Mode mode() const { return mode_; }
  bool recording() const { return mode_ == Mode::kRecord; }
  const Stats& stats() const { return stats_; }

  // --- record side -----------------------------------------------------------
  /// Make (or replay) one choice. In record mode with no pending replay
  /// backlog, `gen` runs and its value is appended. A freshly promoted
  /// primary still holding replayed-but-unconsumed records consumes those
  /// first — the dead primary may have released responses built on them.
  std::uint64_t choose(DecisionKind kind, const std::function<std::uint64_t()>& gen);
  /// Highest seq this side has appended.
  std::uint64_t last_seq() const { return next_seq_ - 1; }
  /// Highest seq whose dependents may be released to clients: everything
  /// (standalone) or the peer's cumulative ack.
  std::uint64_t commit_through() const {
    return standalone_ ? last_seq() : peer_acked_;
  }
  /// Highest seq every live member holds, as the recording side knows it:
  /// the prefix a promotion kept, raised by the members' minimum cumulative
  /// ack. A leader advertises it so followers consume only what a promoted
  /// successor is certain to replay identically.
  std::uint64_t shared_through() const { return std::max(kept_prefix_, peer_acked_); }
  /// The prefix this log kept when it was promoted with followers (0 for a
  /// log that has recorded from the start).
  std::uint64_t kept_prefix() const { return kept_prefix_; }
  /// No live peer: commit everything immediately. `retain` keeps appended
  /// records queued for a (future) rejoiner — the reintegrating survivor
  /// sets it so decisions made while the snapshot streams still reach the
  /// rejoiner; a lone non-FT server drops them on append. Leaving standalone
  /// never moves commit_through() back.
  void set_standalone(bool standalone, bool retain);
  bool standalone() const { return standalone_; }
  /// Every member that commit waits for holds every seq <= cum (the minimum
  /// of their heartbeat acks). Records leave the retransmission window only
  /// through `held` (<= cum): a rejoiner restored from our checkpoint does
  /// not gate commit, but still needs every record above its own ack.
  void on_peer_ack(std::uint64_t cum, std::uint64_t held);
  void on_peer_ack(std::uint64_t cum) { on_peer_ack(cum, cum); }
  /// Oldest unacked records above `after` (the recipient's ack, or the last
  /// record already sent to it), capped: a contiguous run.
  std::vector<DecisionRecord> unacked(std::size_t max, std::uint64_t after = 0) const;
  /// The application finished a batch of choices and wants them on the wire
  /// now instead of at the next periodic beat (fires the endpoint's hook).
  void request_flush() {
    if (flush_hook_) flush_hook_();
  }

  // --- replay side -----------------------------------------------------------
  /// Accept records from a heartbeat block; duplicates and records below the
  /// replay cursor are dropped. Returns true when the contiguous rx cursor
  /// advanced (the endpoint acks promptly; the app re-pumps its executor).
  bool ingest(const std::vector<DecisionRecord>& recs);
  /// Records are parked above a hole the sender has not been told about:
  /// true at most once per rx_cursor(), so a lost beat draws one gap report
  /// (the endpoint flags its ack and the leader resends from it).
  bool take_gap_report();
  /// Highest contiguously ingested-or-consumed seq: the cumulative ack.
  std::uint64_t rx_cursor() const { return rx_cursor_; }
  /// Highest seq already consumed.
  std::uint64_t consumed_through() const { return next_consume_ - 1; }
  /// Consume no record above `seq` (the leader's shared point). Unlimited
  /// by default: with a single follower its own cursor is the bound.
  void set_consume_limit(std::uint64_t seq);
  /// A new leader kept only the prefix through `seq`: forget every
  /// unconsumed record above it (the leader re-offers what it kept and
  /// numbers fresh decisions right after it).
  void truncate_above(std::uint64_t seq);
  /// Next record due for consumption, or nullptr if it has not arrived.
  const DecisionRecord* peek() const;
  /// Like peek, but looking `offset` records past the next one — the
  /// executor pre-checks a request's full decision demand before mutating.
  const DecisionRecord* peek_ahead(std::size_t offset) const;
  /// Consume the next record iff it matches `kind`. Returns false (and
  /// leaves the queue untouched) on a kind mismatch or absence.
  bool try_take(DecisionKind kind, std::uint64_t* value);
  /// Replayed-but-unconsumed backlog (a promoted primary drains this first).
  std::size_t pending_replay() const { return queue_.size(); }

  // --- role transitions ------------------------------------------------------
  /// Backup -> primary at takeover: keep the contiguous queued prefix and
  /// drop everything past the first gap (see file comment). Alone
  /// (`followers` false) the log goes standalone and numbers fresh
  /// decisions above every seq ever seen. With followers it stays
  /// peer-acked: the kept prefix is re-offered to every member (each one
  /// dropped whatever it held above it) and fresh decisions continue right
  /// after it.
  void promote(bool followers = false);
  /// Fresh process (host boot hook) — everything forgotten.
  void reset(Mode mode);

  // --- checkpoint (reintegration snapshot payload) ---------------------------
  /// Record-side state a rejoiner needs: the next sequence number. Restored
  /// state below this seq is already folded into the application checkpoint.
  net::Bytes serialize() const;
  bool restore(net::BytesView data);

  // --- hooks -----------------------------------------------------------------
  /// Endpoint: request_flush() wants a decision heartbeat sent now.
  void set_flush_hook(std::function<void()> fn) { flush_hook_ = std::move(fn); }
  /// Application: commit_through() advanced — release gated responses.
  void set_commit_hook(std::function<void()> fn) { commit_hook_ = std::move(fn); }
  /// Application: replay records arrived — re-pump the executor.
  void set_ingest_hook(std::function<void()> fn) { ingest_hook_ = std::move(fn); }
  /// Application: the log switched replay -> record (takeover) — arm
  /// primary-side machinery (writeback timer, backlog drain).
  void set_promote_hook(std::function<void()> fn) { promote_hook_ = std::move(fn); }

 private:
  void advance_rx_cursor();

  Mode mode_;
  std::uint64_t next_seq_ = 1;     // record side: next seq to assign
  std::uint64_t peer_acked_ = 0;   // record side: peer's cumulative ack
  bool standalone_ = false;
  bool retain_ = true;
  std::deque<DecisionRecord> unacked_;  // record side, oldest first

  std::deque<DecisionRecord> queue_;  // replay side: in-order, contiguous
  /// Ingested out of order (a heartbeat gap): parked until the hole fills.
  std::map<std::uint64_t, DecisionRecord> parked_;
  std::uint64_t rx_cursor_ = 0;       // highest contiguous seq ingested/consumed
  std::uint64_t next_consume_ = 1;    // seq of the next record to consume
  std::uint64_t max_seen_ = 0;        // highest seq ever ingested
  std::uint64_t gap_reported_ = 0;    // rx_cursor_ + 1 at the last gap report
  std::uint64_t consume_limit_ = kNoLimit;
  std::uint64_t kept_prefix_ = 0;     // record side: prefix kept at promotion
  static constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};

  std::function<void()> flush_hook_;
  std::function<void()> commit_hook_;
  std::function<void()> ingest_hook_;
  std::function<void()> promote_hook_;
  Stats stats_;
};

}  // namespace sttcp::sttcp
