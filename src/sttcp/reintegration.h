// Reintegration: returning to fault tolerance after a failover.
//
// The paper leaves rejoin undefined — after any takeover or non-FT
// transition the survivor runs unprotected forever. This module closes the
// loop with a snapshot-transfer protocol over the existing channels:
//
//   rejoiner boots ──heartbeat(rejoin_request, epoch)──► survivor
//   survivor: registers any unregistered connections, re-arms taps/hold
//             buffers, enters kReintegrating, streams a snapshot over the
//             control channel:
//               SnapshotBegin  epoch, conn count, app checkpoint length
//               SnapshotData   app checkpoint bytes (chunked)
//               SnapshotConn   per-connection identity + ISS/IRS + counters
//               SnapshotData   unacked send bytes / unread receive bytes
//               SnapshotEnd
//   rejoiner: buffers the snapshot, applies it atomically at SnapshotEnd —
//             stages the app checkpoint, warm-starts suppressed replica
//             connections mid-stream (tcp::ReplicaInit::midstream), then
//   rejoiner ──heartbeat(rejoin_ready, epoch)──► survivor
//   survivor ──RejoinCommit(epoch)──► rejoiner; both enter kReplicating.
//
// Client transfers stay in flight throughout: the rejoiner's stack taps and
// buffers live segments from the moment it boots, the replay at adoption
// plus ordinary missed-byte recovery against the survivor's re-armed hold
// buffer close any gap, and the snapshot's epoch makes every retry
// idempotent (all snapshot datagrams are unreliable UDP).
#pragma once

#include <cstdint>
#include <map>

#include "net/bytes.h"
#include "sim/world.h"
#include "sttcp/messages.h"
#include "tcp/connection.h"

namespace sttcp::sttcp {

class StTcpEndpoint;

class Reintegrator {
 public:
  explicit Reintegrator(StTcpEndpoint& ep);
  ~Reintegrator();
  Reintegrator(const Reintegrator&) = delete;
  Reintegrator& operator=(const Reintegrator&) = delete;

  // --- rejoiner side ---------------------------------------------------------
  /// Host boot hook: this node just came back from a crash. Re-enter the
  /// pair as a backup and start soliciting a snapshot.
  void enter_rejoin();
  /// Heartbeat flags the endpoint should carry this period.
  bool rejoin_request_flag() const;
  bool rejoin_ready_flag() const;
  std::uint32_t epoch() const { return epoch_; }
  /// The snapshot has been applied (replicas adopted); heartbeat records
  /// from the survivor are meaningful again.
  bool snapshot_applied() const { return applied_; }

  // --- survivor side ---------------------------------------------------------
  /// Member `member`'s heartbeat carried rejoin_request: the snapshot
  /// targets ITS address, one rejoiner at a time.
  void on_rejoin_request(std::uint32_t epoch, std::uint8_t member);
  /// Member `member`'s heartbeat carried rejoin_ready and `decision_ack`,
  /// its cumulative decision ack (0 without a decision block). The rejoin
  /// commits only once that ack covers our commit point; from the first
  /// such beat on, the rejoiner gates commit, so the point stops moving.
  void on_rejoin_ready(std::uint32_t epoch, std::uint8_t member,
                       std::uint64_t decision_ack);
  /// The member being reintegrated (-1 when none).
  int rejoin_member() const { return rejoin_member_; }
  /// The rejoiner has applied this epoch's snapshot and gates commit.
  bool rejoiner_ready() const { return rejoiner_ready_; }
  /// Give the rejoin up (retry budget spent, or the rejoiner fell silent).
  void abandon();

  /// Control-channel datagrams with type >= kSnapshotBegin from `member`
  /// land here.
  void on_control(net::BytesView payload, std::uint8_t member);

 private:
  // Survivor.
  void begin_reintegration();
  void capture_and_send_snapshot();
  void arm_retry();
  void send_commit(std::uint32_t epoch);

  // Rejoiner.
  void on_snapshot_begin(net::ByteReader& r);
  void on_snapshot_conn(net::ByteReader& r);
  void on_snapshot_data(net::ByteReader& r);
  void on_snapshot_end(net::ByteReader& r, std::uint8_t leader);
  void on_commit(net::ByteReader& r, std::uint8_t leader);
  /// `leader`: the member that streamed the snapshot.
  void apply_snapshot(std::uint8_t leader);
  void send_control(const net::Bytes& payload);

  StTcpEndpoint& ep_;
  sim::OneShotTimer retry_timer_;

  std::uint32_t epoch_ = 0;            // epoch currently being negotiated
  std::uint32_t committed_epoch_ = 0;  // survivor: last completed epoch
  bool have_committed_ = false;
  int attempts_ = 0;                   // survivor: snapshots sent this epoch
  // Survivor side: which member the snapshot flows to, and its peers_ index.
  int rejoin_member_ = -1;
  std::size_t rejoin_peer_ = 0;
  bool rejoiner_ready_ = false;

  // Rejoiner: partial snapshot, applied atomically at SnapshotEnd.
  struct SnapConn {
    tcp::FourTuple tuple;
    std::uint32_t iss = 0;
    std::uint32_t irs = 0;
    bool peer_fin = false;
    std::uint64_t peer_fin_offset = 0;
    std::uint64_t received = 0, acked = 0, written = 0, read = 0;
    std::uint32_t tx_len = 0, rx_len = 0;
    net::Bytes tx, rx;
  };
  bool rx_active_ = false;
  std::uint32_t rx_epoch_ = 0;
  std::uint16_t rx_expected_conns_ = 0;
  net::Bytes rx_app_;  // assembled from kKindApp chunks; must reach rx_app_len_
  std::uint32_t rx_app_len_ = 0;
  std::map<std::uint16_t, SnapConn> rx_conns_;
  bool applied_ = false;
};

}  // namespace sttcp::sttcp
