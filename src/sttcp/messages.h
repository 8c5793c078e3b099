// Wire formats for the server-to-server protocol.
//
// Heartbeat (§3): sent every hb_period on BOTH channels (UDP over the IP
// link, and the RS-232 serial link). Carries, per connection, the four
// progress counters the paper lists —
//   LastByteReceived, LastAckReceived, LastAppByteWritten, LastAppByteRead —
// plus FIN/RST/closed notices and (while unconfirmed) the connection
// announcement with the primary's ISS and the client's IRS so the backup can
// seed its replica with matching sequence numbers.
//
// The steady-state record is 19 bytes — within the paper's "less than 20
// bytes per TCP connection", which is what makes ~100 connections fit on a
// 115.2 kbps serial channel at a 200 ms heartbeat. Counters travel as the
// low 32 bits of the 64-bit positions and are unwrapped against the
// receiver's previous value.
//
// Control messages (UDP, IP link only): missed-byte recovery (§4.3).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/addr.h"
#include "net/bytes.h"
#include "sttcp/decision.h"
#include "sttcp/group.h"

namespace sttcp::sttcp {

enum class Role : std::uint8_t { kPrimary = 0, kBackup = 1 };

const char* to_string(Role r);

/// Per-connection heartbeat record.
struct HbRecord {
  std::uint16_t repl_id = 0;

  // Flags.
  bool fin_generated = false;
  bool rst_generated = false;
  bool closed = false;
  bool announce = false;     // extended announce fields present
  bool established = false;  // (announce only) connection already established

  // The four progress counters, as absolute 64-bit stream positions. Only
  // the low 32 bits travel on the wire.
  std::uint64_t bytes_received = 0;    // LastByteReceived
  std::uint64_t acked_by_peer = 0;     // LastAckReceived
  std::uint64_t app_written = 0;       // LastAppByteWritten
  std::uint64_t app_read = 0;          // LastAppByteRead

  // Announce-only fields.
  net::Ipv4Addr client_ip;
  std::uint16_t client_port = 0;
  std::uint16_t local_port = 0;
  std::uint32_t iss = 0;
  std::uint32_t irs = 0;

  /// Wire size of this record.
  std::size_t wire_size() const { return announce ? 19 + 16 : 19; }
};

struct HeartbeatMsg {
  Role role = Role::kPrimary;
  std::uint32_t hb_seq = 0;

  // Gateway-ping arbitration (§4.3): result of the most recent ping, when
  // arbitration is active.
  bool ping_valid = false;
  bool ping_ok = false;

  /// Watchdog extension (§4.2.2 suggestion): the sender's application-level
  /// watchdog suspects the local application has failed.
  bool app_suspect = false;

  /// Reintegration (beyond the paper): a freshly-booted node asks to rejoin
  /// as backup (rejoin_request); a rejoiner that has applied the survivor's
  /// snapshot and caught up signals readiness (rejoin_ready). `rejoin_epoch`
  /// travels only when one of the flags is set (the steady-state heartbeat
  /// keeps its paper-sized wire format) and makes retries idempotent.
  bool rejoin_request = false;
  bool rejoin_ready = false;
  std::uint32_t rejoin_epoch = 0;

  /// Group-view extension (docs/GROUPS.md): the sender's member index, its
  /// view epoch, the rank-ordered member list (order[0] is the leader) and
  /// its decision-log sharing points — `decision_base`, the prefix it kept
  /// when promoted, and `decision_shared`, the highest decision every live
  /// member holds. Travels only when `group_valid` is set, which endpoints
  /// do only for rosters above two members: the 2-member roster is the
  /// paper's pair and keeps its wire format byte-identical.
  bool group_valid = false;
  std::uint8_t member = 0;
  std::uint32_t view_epoch = 0;
  std::vector<std::uint8_t> view_order;
  std::uint64_t decision_base = 0;
  std::uint64_t decision_shared = 0;

  /// Logged-decision block (docs/APPLICATION.md): the sender's cumulative
  /// ack of the peer's decision stream plus a run of its own records. Gated
  /// on a header flag like the group block — endpoints without a decision
  /// log keep the paper-sized wire format byte-identical. The records must
  /// be contiguous (seq base, base + 1, ...): the wire carries the base
  /// once and each record as kind(1) value(8).
  bool decisions_valid = false;
  std::uint64_t decision_ack = 0;
  std::vector<DecisionRecord> decisions;
  /// Gap report (header flag 0x80): the sender parked records above a hole
  /// in the stream just acked, so the leader resends from `decision_ack`
  /// now instead of at its next periodic beat.
  bool decision_gap = false;

  std::vector<HbRecord> records;

  net::Bytes serialize() const;
  static std::optional<HeartbeatMsg> parse(net::BytesView data);
};

/// Unwrap a 32-bit wire counter against the previous 64-bit value.
/// Counters are monotonic, so the result is never allowed to go backwards.
std::uint64_t unwrap_counter(std::uint32_t wire_value, std::uint64_t previous);

// --- control channel ---------------------------------------------------------

enum class ControlType : std::uint8_t {
  kMissedBytesRequest = 1,
  kMissedBytesReply = 2,
  // Reintegration snapshot stream (serialized/parsed in reintegration.cc;
  // the endpoint routes types >= kSnapshotBegin to the Reintegrator).
  kSnapshotBegin = 3,   // epoch, connection count, application checkpoint
  kSnapshotConn = 4,    // one connection's identity, sequence basis, counters
  kSnapshotData = 5,    // a chunk of a connection's unacked/unread bytes
  kSnapshotEnd = 6,     // snapshot complete; rejoiner applies atomically
  kRejoinCommit = 7,    // survivor saw rejoin_ready: both re-enter FT mode
  // Group promotion (1+N, docs/GROUPS.md): quorum-over-IP arbitration.
  kPromoteRequest = 8,  // candidate asks a live voter for its epoch's grant
  kPromoteAck = 9,      // voter grants (or denies) one candidate per epoch
  kViewAnnounce = 10,   // new leader installs the post-promotion view
};

/// Candidate -> voter: "I convicted everyone ranked below me in epoch
/// `epoch`'s view; grant me the promotion."
struct PromoteRequest {
  std::uint32_t epoch = 0;
  std::uint8_t candidate = 0;  // member index of the requester

  net::Bytes serialize() const;
};

/// Voter -> candidate. A voter grants at most one candidate per epoch.
struct PromoteAck {
  std::uint32_t epoch = 0;
  std::uint8_t candidate = 0;
  std::uint8_t voter = 0;
  bool granted = false;

  net::Bytes serialize() const;
};

/// New leader -> every surviving member: the post-promotion (or post-
/// conviction / post-reintegration) view. order[0] is the leader.
struct ViewAnnounce {
  std::uint32_t epoch = 0;
  std::vector<std::uint8_t> order;

  net::Bytes serialize() const;
};

struct MissedBytesRequest {
  std::uint16_t repl_id = 0;
  std::uint64_t offset = 0;  // absolute payload offset of the first wanted byte
  std::uint32_t length = 0;

  net::Bytes serialize() const;
};

struct MissedBytesReply {
  std::uint16_t repl_id = 0;
  std::uint64_t offset = 0;
  net::Bytes data;

  net::Bytes serialize() const;
};

struct ControlMsg {
  ControlType type;
  MissedBytesRequest request;  // valid when type == kMissedBytesRequest
  MissedBytesReply reply;      // valid when type == kMissedBytesReply
  PromoteRequest promote_request;  // valid when type == kPromoteRequest
  PromoteAck promote_ack;          // valid when type == kPromoteAck
  ViewAnnounce view_announce;      // valid when type == kViewAnnounce

  static std::optional<ControlMsg> parse(net::BytesView data);
};

}  // namespace sttcp::sttcp
