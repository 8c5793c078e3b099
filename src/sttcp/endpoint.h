// StTcpEndpoint: the per-server ST-TCP engine (the paper's primary
// contribution).
//
// One endpoint runs on every member of a replication roster: the leader
// (the paper's primary) and one or more ranked followers (backups). The
// paper's pair is the 2-member roster; there is no separate pair path. Each
// endpoint:
//  * exchanges heartbeats every hb_period with every other member on the IP
//    link, and additionally over the RS-232 serial link with the member it
//    shares the cable with (§3), carrying the per-connection progress
//    counters, FIN/RST notices, connection announcements and gateway-ping
//    results;
//  * tracks per-member, per-channel liveness (hb_miss_threshold consecutive
//    silent periods kill a channel);
//  * detects and reacts to every single-failure row of Table 1:
//      1. HW/OS crash        — both channels dead             → takeover / non-FT
//      2. app hang (no FIN)  — AppMaxLagBytes / AppMaxLagTime → takeover / non-FT
//      3. app crash (FIN)    — FIN disagreement + MaxDelayFIN → takeover / non-FT
//      4. NIC/cable failure  — IP dead + serial alive, LastByteReceived
//                              comparison + gateway-ping arbitration
//      5. temporary loss     — a follower recovers missed bytes from the
//                              leader's hold buffer over the control channel
//  * on the leader: feeds the hold buffer from the connection rx tap,
//    releases it as every follower confirms receipt, gates FIN/RST emission
//    for arbitration, and announces new connections (ISS/IRS) to followers;
//  * on a follower: creates replica connections from announcements, keeps
//    them suppressed, and — when the leader is convicted — runs the ranked
//    promotion (docs/GROUPS.md). With no other follower left the ballot is
//    vacuous and the promotion is the paper's takeover: STONITH the old
//    leader, leave replica mode, stop suppressing (paper: wait for the next
//    natural retransmission; optionally retransmit immediately).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/host.h"
#include "net/serial_link.h"
#include "obs/metrics.h"
#include "sttcp/config.h"
#include "sttcp/group.h"
#include "sttcp/hold_buffer.h"
#include "sttcp/lag.h"
#include "sttcp/messages.h"
#include "tcp/stack.h"

namespace sttcp::sttcp {

class Reintegrator;

class StTcpEndpoint final : public tcp::TcpStack::ConnectionObserver {
 public:
  enum class Mode {
    kReplicating,       // normal operation, peer believed healthy
    kNonFaultTolerant,  // primary continuing alone (backup declared failed)
    kTakenOver,         // backup now owns the client connections
    kReintegrating,     // survivor: streaming its snapshot to a rejoiner
    kRejoining,         // freshly booted: asking the survivor for a snapshot
    kDead,              // this host crashed
  };

  struct Stats {
    std::uint64_t hb_sent = 0;
    std::uint64_t hb_received_ip = 0;
    std::uint64_t hb_received_serial = 0;
    std::uint64_t hb_malformed = 0;       // rejected by the codec (noise/garbage)
    std::uint64_t hb_stale = 0;           // reordered/duplicated old heartbeats
    std::uint64_t control_malformed = 0;  // control datagrams the codec rejected
    std::uint64_t announces_confirmed = 0;
    std::uint64_t replicas_created = 0;
    std::uint64_t missed_requests_sent = 0;
    std::uint64_t missed_requests_served = 0;
    std::uint64_t missed_bytes_injected = 0;
    std::uint64_t logger_requests_sent = 0;
    std::uint64_t logger_bytes_injected = 0;
    std::uint64_t decision_hb_sent = 0;  // event-style decision/ack beats
    /// Decision records put on beats, one count per recipient member: each
    /// record crosses once per member unless a beat is lost.
    std::uint64_t decision_records_sent = 0;
    std::uint64_t fin_delayed = 0;
    std::uint64_t fin_agreed = 0;
    std::uint64_t takeovers = 0;
    std::uint64_t promotions = 0;            // promotion wins (a takeover is one)
    std::uint64_t votes_granted = 0;         // PromoteAck grants sent
    std::uint64_t votes_denied = 0;          // PromoteAck denials sent
    std::uint64_t view_changes = 0;          // epochs adopted/announced
    std::uint64_t reintegrations = 0;        // survivor side: completed
    std::uint64_t rejoins = 0;               // rejoiner side: completed
    std::uint64_t snapshot_conns_sent = 0;
    std::uint64_t snapshot_conns_adopted = 0;
  };

  StTcpEndpoint(net::Host& host, tcp::TcpStack& stack, net::PowerController& power,
                net::SerialPort* serial, Role role, StTcpConfig config);
  ~StTcpEndpoint() override;
  StTcpEndpoint(const StTcpEndpoint&) = delete;
  StTcpEndpoint& operator=(const StTcpEndpoint&) = delete;

  /// Bind channels and begin heartbeating. Call once topology is wired.
  void start();

  Role role() const { return role_; }
  Mode mode() const { return mode_; }
  const StTcpConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }

  /// Channel liveness as currently believed: some other member was heard
  /// on the channel within the miss deadline (tests / benches).
  bool ip_channel_alive() const;
  bool serial_channel_alive() const;
  /// Replicated connections currently tracked.
  std::size_t replicated_connections() const { return conns_.size(); }
  /// High-water mark of any single connection's hold buffer, in bytes —
  /// the chaos invariants assert this never exceeds the configured capacity.
  std::size_t hold_peak_bytes() const { return hold_peak_bytes_; }
  /// Current total bytes across all hold buffers (maintained incrementally;
  /// the churn invariants audit it against the per-connection capacity sum).
  std::uint64_t hold_total_bytes() const { return hold_total_bytes_; }

  /// Watchdog extension: the application layer reports a suspicion that the
  /// LOCAL application has failed; relayed to the peer via the heartbeat.
  void report_local_app_suspect() { local_app_suspect_ = true; }

  // --- replication roster (docs/GROUPS.md) ----------------------------------
  /// The wire-format rule: rosters above two members carry the group-view
  /// block (header flag 0x20) and control types 8–10, and record the view
  /// protocol's milestones. The 2-member roster is the paper's pair and
  /// keeps the paper's wire format, trace and metrics.
  bool view_on_wire() const { return cfg_.group.size() > 2; }
  /// Current view (rank-ordered member list + epoch).
  const GroupView& view() const { return view_; }
  /// This member's rank in its current view (0 = leader; -1 = fenced out).
  int promotion_rank() const { return view_.rank_of(my_member()); }
  bool is_group_leader() const { return view_.is_leader(my_member()); }

  // --- reintegration (beyond the paper) --------------------------------------
  /// The application's checkpoint: serialized by the survivor into the
  /// rejoin snapshot, staged on the rejoiner before replica adoption. The
  /// endpoint is application-agnostic — these are opaque bytes.
  using CheckpointProvider = std::function<net::Bytes()>;
  using CheckpointRestorer = std::function<void(net::BytesView)>;
  void set_checkpoint_provider(CheckpointProvider fn) {
    checkpoint_provider_ = std::move(fn);
  }
  void set_checkpoint_restorer(CheckpointRestorer fn) {
    checkpoint_restorer_ = std::move(fn);
  }

  // --- logged-decision channel (decision.h, docs/APPLICATION.md) -------------
  /// Attach the application's decision log. The endpoint piggybacks its
  /// records and cumulative ack on heartbeats (the 0x40 header block) —
  /// each record once per member on event beats, resent from the member's
  /// ack on periodic beats and on a gap report (header flag 0x80) — acks
  /// promptly when ingest advances or parks above a hole, feeds the
  /// leader's log the minimum ack over the current view, bounds a
  /// follower's consumption by the leader's shared point, promotes the log
  /// at takeover, and flips it standalone whenever the leader loses its last
  /// follower.
  void set_decision_log(DecisionLog* log);
  DecisionLog* decision_log() const { return decision_log_; }
  /// Event-style decision-only heartbeat (IP channel, no connection
  /// records): the application flushed a batch of choices, or our replay
  /// cursor advanced and the leader is waiting on the ack to release
  /// gated responses. `gap` flags the ack as a gap report.
  void send_decision_heartbeat(bool gap = false);

  // --- tcp::TcpStack::ConnectionObserver -------------------------------------
  void on_accepted(tcp::TcpConnection& conn) override;
  void on_finished(tcp::TcpConnection& conn, tcp::CloseReason reason) override;

 private:
  struct ReplConn {
    std::uint16_t id = 0;
    tcp::FourTuple tuple;
    tcp::TcpConnection* conn = nullptr;

    HoldBuffer hold;  // leader only

    // FIN arbitration.
    bool fin_withheld = false;
    sim::OneShotTimer fin_delay_timer;
    sim::OneShotTimer peer_fin_timer;  // peer FINed, we did not

    // Missed-byte recovery (backup side: request state; primary side: when
    // we last served this connection — explains the backup's transient lag).
    sim::SimTime last_request_at;
    std::uint64_t last_request_offset = 0;
    sim::SimTime last_served_at;
    bool ever_served = false;

    // Local close bookkeeping: final counters survive connection GC.
    bool local_closed = false;
    sim::SimTime closed_at;
    std::uint64_t f_received = 0, f_acked = 0, f_written = 0, f_read = 0;
    bool f_fin = false, f_rst = false;

    sim::SimTime registered_at;

    // Per-member progress mirror, indexed like peers_: one member's counters
    // from its own heartbeat records (unwrapped to 64 bits) and the
    // detectors that compare them with ours. The leader keeps one per
    // follower and convicts the one that lags; a follower reads its leader's.
    struct PeerProgress {
      PeerProgress(const StTcpConfig& cfg, sim::SimTime now)
          : lag_read(cfg.app_max_lag_bytes, cfg.app_lag_bytes_grace, cfg.app_max_lag_time),
            lag_written(lag_read),
            lag_received(cfg.nic_lag_bytes, cfg.app_lag_bytes_grace, cfg.nic_lag_time),
            lag_acked(lag_received),
            progress(cfg.progress_stall_time),
            since(now) {}

      bool valid = false;   // a record matched: the member's replica exists
      bool echoed = false;  // matched by OUR id: stop announcing to this member
      std::uint64_t received = 0, acked = 0, written = 0, read = 0;
      bool fin = false, rst = false, closed = false;

      // Lag detectors (app read / write; LastByteReceived and
      // LastAckReceived for NIC arbitration — the ACK comparison covers
      // download-heavy workloads where the client sends no data, §4.3).
      LagTracker lag_read, lag_written, lag_received, lag_acked;
      // Grey-failure criterion: absolute stagnation of the counter sum
      // under local demand (see lag.h). Disabled unless
      // cfg.progress_stall_time > 0.
      ProgressWatch progress;

      sim::SimTime since;  // when tracking (re)started; setup-grace baseline

      /// Forget the detection history (the member is catching up by design).
      void restart_detection() {
        for (LagTracker* t : {&lag_read, &lag_written, &lag_received, &lag_acked}) {
          t->reset();
        }
        progress.reset();
      }
      /// Start the member over as of `now`. The counters stay: they are
      /// positions in the connection's one stream, so the member's next
      /// record unwraps against them and they never regress.
      void reset(sim::SimTime now) {
        valid = echoed = fin = rst = closed = false;
        since = now;
        restart_detection();
      }
    };
    std::vector<PeerProgress> gp;

    ReplConn(sim::EventLoop& loop, const StTcpConfig& cfg, std::size_t peers,
             sim::SimTime now)
        : hold(cfg.hold_buffer_capacity),
          fin_delay_timer(loop),
          peer_fin_timer(loop),
          registered_at(now),
          gp(peers, PeerProgress(cfg, now)) {}

    // Current counter values: live connection or final snapshot.
    std::uint64_t received() const { return conn ? conn->bytes_received() : f_received; }
    std::uint64_t acked() const { return conn ? conn->bytes_acked_by_peer() : f_acked; }
    std::uint64_t written() const { return conn ? conn->app_bytes_written() : f_written; }
    std::uint64_t read() const { return conn ? conn->app_bytes_read() : f_read; }
    bool fin() const { return conn ? conn->fin_generated() : f_fin; }
    bool rst() const { return conn ? conn->rst_generated() : f_rst; }
  };

  // Heartbeat path. Periodic beats go to every member on the IP channel and
  // to the cable-sharing member on the serial channel; event-triggered
  // beats (connection announce, FIN notice) go out on the IP channel only —
  // a full heartbeat costs milliseconds of serial wire time, and a burst of
  // events (e.g. 100 connections arriving) must not back the serial link up.
  // Event beats carry ONLY the affected connection's record: a full record
  // scan per accept/FIN is O(n) serialization per event, which at thousands
  // of churning connections turns every accept into a 40 KB datagram.
  // The serial copy of the periodic beat can additionally be capped to
  // cfg_.serial_max_records records, rotated round-robin across periods
  // (the 115.2 kbps line cannot carry thousands of records per period).
  void send_heartbeat(bool include_serial = true);
  void send_event_heartbeat(std::uint16_t id);
  struct GroupPeer;
  /// Header and decision block for one recipient. Its records start above
  /// its cumulative ack, or — `fresh_only`, on event beats — above what was
  /// already sent to it; they advance its sent cursor.
  HeartbeatMsg make_hb_header(GroupPeer& to, bool fresh_only);
  /// The announce decision is per member: `peer_idx` indexes peers_.
  HbRecord make_record(std::uint16_t id, const ReplConn& rc, std::size_t peer_idx) const;
  void on_hb_datagram(net::BytesView payload, bool via_serial);
  void on_heartbeat(const HeartbeatMsg& msg, bool via_serial);
  /// `peer_idx` indexes peers_: the member the record arrived from.
  void process_record(const HbRecord& rec, std::size_t peer_idx);
  void detector_tick();
  /// Emit one member's copy of a heartbeat: the (possibly budget-rotated)
  /// UDP copy to `dst` and, when `serial` is non-null, the capped serial
  /// copy. The rotation cursors are that member's, so no member's window is
  /// advanced by a copy sent to a different member.
  void emit_heartbeat(const HeartbeatMsg& msg, std::size_t total_bytes,
                      net::Ipv4Addr dst, net::SerialPort* serial,
                      std::uint16_t& udp_cursor, std::uint16_t& serial_cursor);

  // Registration. Replica ids wrap within their range (primary [1, 0x8000),
  // inferred [0x8000, 0xffff]) and skip ids still tracked — a long churn run
  // cycles the 15-bit space many times over.
  std::uint16_t alloc_primary_id();
  std::uint16_t alloc_inferred_id();
  /// Move the replica tracked under `old_id` to the free id `new_id`; false
  /// when `old_id` tracks nothing.
  bool rekey(std::uint16_t old_id, std::uint16_t new_id);
  void register_primary_conn(tcp::TcpConnection& conn);
  /// Install the primary-side per-connection seams (rx tap feeding the hold
  /// buffer, close gate for FIN arbitration); used at registration and again
  /// when a reintegrating survivor re-arms a former backup's connections.
  void install_primary_seams(tcp::TcpConnection& conn, std::uint16_t id);
  /// The service-side 4-tuple an announce record names.
  tcp::FourTuple announced_tuple(const HbRecord& rec) const;
  void create_replica_from(const HbRecord& rec);
  /// Raise both id cursors above every id we track (a former follower's
  /// table mixes an earlier leader's ids with its own inferred ids).
  void raise_id_cursors();
  /// A promoted leader's live replicas under our own inferred ids move into
  /// the primary range: every follower numbers its inferences in the same
  /// 0x8000+ range, so an inferred id may name another connection there.
  /// The announces that follow carry the tuple; each follower re-keys its
  /// replica to the new id.
  void renumber_inferred_conns();
  /// `established` false = seeded from the tapped SYN via the deterministic
  /// accept-ISN function; the replica finishes the handshake passively.
  void create_replica_inferred(const tcp::FourTuple& tuple, tcp::SeqWire iss,
                               tcp::SeqWire irs, bool established);
  /// Keyed accept-side ISN for the service, shared by every member.
  tcp::SeqWire service_isn(const tcp::FourTuple& t) const;

  // FIN arbitration.
  bool close_gate(std::uint16_t id, bool is_rst);
  void on_peer_fin_notice(ReplConn& rc);

  // NIC arbitration.
  void update_ping_loop();
  void stop_ping_loop();

  // Recovery.
  void maybe_request_missed(ReplConn& rc);
  void on_control_datagram(net::Ipv4Addr src, net::BytesView payload);
  void serve_missed(const MissedBytesRequest& req, net::Ipv4Addr requester);
  // Logger fallback (§4.3 output-commit extension): after a takeover, fetch
  // client bytes the dead primary had acknowledged from the stream logger.
  void logger_recovery_tick();
  void apply_missed(const MissedBytesReply& rep);

  // Failure reactions.
  void go_non_ft(const std::string& reason);

  // --- roster machinery (group.h, docs/GROUPS.md) ----------------------------
  /// Liveness/arbitration state for one OTHER roster member.
  struct GroupPeer {
    std::uint8_t member = 0;
    net::Ipv4Addr ip;
    std::string name;
    bool has_serial = false;  // shares the RS-232 cable with us (members 0/1)
    sim::SimTime last_rx_ip;
    sim::SimTime last_rx_serial;
    std::uint32_t last_hb_seq = 0;
    bool seen_hb = false;
    bool app_suspect = false;
    int ping_fail_streak = 0;
    /// The member's cumulative ack of our decision stream.
    std::uint64_t decision_ack = 0;
    /// Highest of our decision records already on a beat to this member.
    /// Reset to 0 (the ack rules) whenever what the member holds may have
    /// changed: promotion, a view adoption, an ack moving backwards.
    std::uint64_t decision_sent = 0;
    // Per-peer rotating-window cursors (serial record cap and UDP byte
    // budget): each member's window advances only with copies sent to IT, so
    // a record cannot be starved on one channel by traffic to another.
    // Cursors hold the next connection id to send, not a vector position:
    // ids survive the churn of connections opening and closing between
    // beats, so no record can be starved by recomposition.
    std::uint16_t serial_rr_next_id = 0;
    std::uint16_t udp_rr_next_id = 0;
  };

  std::uint8_t my_member() const { return static_cast<std::uint8_t>(cfg_.my_member); }
  GroupPeer* peer_by_member(std::uint8_t m);
  int peer_index_by_ip(net::Ipv4Addr ip) const;
  bool peer_ip_alive(const GroupPeer& p) const;
  bool peer_serial_alive(const GroupPeer& p) const;
  /// The serial cable links every roster member: the pair's RS-232 line
  /// arbitrates, so no gateway ping gates a promotion.
  bool serial_arbitrates() const;
  /// Record a view-protocol milestone (view_on_wire() rosters only).
  void group_trace(const char* event, const std::string& detail);
  /// Adopt a strictly newer view (from a heartbeat or a ViewAnnounce). A
  /// view that excludes this member is a fence: re-enter via rejoin.
  void maybe_adopt_view(std::uint32_t epoch, const std::vector<std::uint8_t>& order);
  /// Convict one member: remove it from the view, queue its STONITH, and
  /// either (leader) fence it and carry on — non-fault-tolerant once no
  /// follower is left — or (follower) start the ranked-promotion protocol.
  void member_failed(std::size_t peer_idx, const std::string& reason,
                     const char* trace_event);
  /// Ranked promotion: called after any view change while leaderless.
  void evaluate_promotion();
  void on_defer_expired();
  void become_candidate();
  void try_win_promotion();
  void win_promotion();
  void on_promote_request(net::Ipv4Addr src, const PromoteRequest& pr);
  void on_promote_ack(const PromoteAck& ack);
  /// Send the current view to every configured member (control channel;
  /// the next heartbeats carry it too). view_on_wire() rosters only.
  void announce_view();
  /// STONITH every member convicted since the last flush — always BEFORE
  /// unsuppressing any replica (the dual-active guard).
  void flush_stonith_pending();
  /// Reintegration commit on the leader: re-admit `member` at the lowest
  /// rank, bump the epoch and announce.
  void group_commit_rejoin(std::uint8_t member);
  /// Reintegration commit on the rejoiner: `leader` committed us, so it
  /// leads and we follow at the lowest rank until a view says otherwise.
  void seat_behind(std::uint8_t leader);
  /// Live members other than this one and `except` (e.g. a rejoiner).
  std::size_t live_followers(int except = -1) const;
  /// peers_ index of the leader, whose mirror a follower reads (-1 while
  /// this member heads its own view).
  int leader_index() const;
  /// `pred` holds on every mirror this member settles agreement with: on
  /// the leader each live member's (vacuously true with none), on a
  /// follower its leader's (false without one). A mirror without a record
  /// never agrees.
  bool mirrors_agree(const ReplConn& rc,
                     bool (*pred)(const ReplConn::PeerProgress&)) const;
  void update_group_gauges();

  ReplConn* by_id(std::uint16_t id);
  ReplConn* by_tuple(const tcp::FourTuple& t);
  void gc_closed_conns();
  bool active() const { return mode_ == Mode::kReplicating && host_.alive(); }
  /// Replication plumbing (taps, records, heartbeats) also runs while a
  /// reintegration is in flight on either side.
  bool replicating_or_reintegrating() const {
    return mode_ == Mode::kReplicating || mode_ == Mode::kReintegrating ||
           mode_ == Mode::kRejoining;
  }
  /// Install the backup-side stack seams (replica mode + ISN inference);
  /// used at start() and again when this node reboots into a rejoin.
  void install_replica_seams();

  /// Map the current mode onto the decision log's commit discipline:
  /// replicating = peer-acked commit; reintegrating = retain for the
  /// rejoiner, commit on the live followers' acks (standalone when none is
  /// left); taken-over / non-FT = standalone, drop.
  /// Called after every mode transition site (takeover, go_non_ft, the
  /// reintegrator's handshakes) — idempotent.
  void sync_decision_log();
  void process_decisions(const HeartbeatMsg& msg, GroupPeer& from);
  /// Feed the log the minimum cumulative ack over the current view (commit)
  /// and over the view plus a rejoiner being reintegrated (retention). Re-run
  /// on every view change.
  void refresh_decision_ack();

  net::Host& host_;
  tcp::TcpStack& stack_;
  net::PowerController& power_;
  net::SerialPort* serial_;
  Role role_;
  StTcpConfig cfg_;
  sim::Logger log_;
  sim::World& world_;

  Mode mode_ = Mode::kReplicating;
  sim::PeriodicTimer hb_timer_;
  std::uint32_t hb_seq_ = 0;
  bool started_ = false;

  std::size_t hold_peak_bytes_ = 0;
  // Running total across all hold buffers; adjusted at every mutation site
  // (rx tap, release, clear, GC) so the gauge update is O(1) per event, not
  // an O(n) rescan per heartbeat record (O(n²) per heartbeat at scale).
  std::uint64_t hold_total_bytes_ = 0;
  void note_hold_change(std::size_t before, std::size_t after);
  void recompute_hold_total();

  std::vector<GroupPeer> peers_;  // every OTHER roster member
  GroupView view_;
  PromotionBallot ballot_;
  sim::OneShotTimer promote_timer_;
  /// Convicted members awaiting STONITH (flushed before any unsuppress).
  std::vector<std::uint8_t> stonith_pending_;
  /// True between convicting the leader and learning (or becoming) the next
  /// one; gates the candidacy / defer state machine.
  bool awaiting_leader_ = false;
  /// The conviction that left us leaderless (the takeover's trace detail).
  std::string promotion_reason_;
  /// One-grant-per-epoch ledger (voter side).
  bool have_granted_ = false;
  std::uint32_t granted_epoch_ = 0;
  std::uint8_t granted_candidate_ = 0;
  /// The leader whose decision numbering this follower's log holds. A view
  /// naming a different leader means records above that leader's kept
  /// prefix are stale: acks stay at the consumed point until its heartbeat
  /// says where to truncate.
  std::uint8_t log_leader_ = 0;

  // Gateway-ping arbitration.
  sim::OneShotTimer ping_timer_;
  // Logger fallback.
  sim::OneShotTimer logger_timer_;
  int logger_attempts_ = 0;
  bool ping_loop_active_ = false;
  bool my_ping_valid_ = false;
  bool my_ping_ok_ = false;
  bool local_app_suspect_ = false;

  std::map<std::uint16_t, std::unique_ptr<ReplConn>> conns_;
  std::map<tcp::FourTuple, std::uint16_t> id_by_tuple_;
  std::uint16_t next_id_ = 1;
  /// Inferred (un-announced) replicas use a disjoint id range; they are
  /// remapped to the primary's id when its announce arrives.
  std::uint16_t next_inferred_id_ = 0x8000;

  // Observability (bound in start() when World::metrics() is set; null = off).
  void update_hold_gauge();
  obs::Histogram* m_hb_gap_ip_us_ = nullptr;
  obs::Histogram* m_hb_gap_serial_us_ = nullptr;
  obs::Gauge* m_hold_bytes_ = nullptr;
  obs::Counter* m_recovery_bytes_ = nullptr;
  /// Worst current byte lag across this node's app-lag trackers — the grey
  /// detection-latency signal, exported so bench output can graph how far a
  /// sick peer fell behind before conviction.
  obs::Gauge* m_app_lag_bytes_ = nullptr;
  /// This member's current promotion rank and view epoch (view_on_wire()).
  obs::Gauge* m_rank_ = nullptr;
  obs::Gauge* m_epoch_ = nullptr;
  obs::FailoverTimeline* timeline_ = nullptr;
  /// Worst lag_bytes observed since start (survives tracker resets; stamped
  /// into the timeline's conviction record).
  std::uint64_t app_lag_peak_bytes_ = 0;

  // Reintegration engine (reintegration.cc); owns the rejoin protocol state
  // on both sides and reaches into this endpoint as a friend.
  friend class Reintegrator;
  std::unique_ptr<Reintegrator> reintegrator_;
  CheckpointProvider checkpoint_provider_;
  CheckpointRestorer checkpoint_restorer_;
  DecisionLog* decision_log_ = nullptr;

  Stats stats_;
};

}  // namespace sttcp::sttcp
