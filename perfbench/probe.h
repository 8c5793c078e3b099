// Outside-in per-layer timing for the traced mode.
//
// The Probe changes no program code. It uses only seams the libraries
// already expose:
//
//   * every Link::Port sink is swapped for a timing FrameSink that forwards
//     to the original. A port bound to a Nic times that host's whole
//     receive path (NIC -> IP -> TCP or heartbeat -> application), which
//     runs inline because cpu_packet_time is zero. A port bound to a switch
//     times switch ingress; one bound to a router times forwarding;
//   * every EthernetSwitch frame tap is wrapped: the wrapper decodes headers
//     and heartbeats (sttcp::HeartbeatMsg::parse) and times the tap it
//     replaced, which is the InvariantChecker's;
//   * nested time is subtracted: a timed scope's self time excludes the
//     timed scopes and probe analysis that ran inside it.
//
// The Probe draws no randomness and schedules no events, so a traced run
// is bit-identical in simulated time to an untraced one. It is not
// thread-safe: sharded worlds are traced on one executor thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/topology.h"
#include "net/frame.h"
#include "net/link.h"

namespace sttcp::perfbench {

/// What a frame costs where it lands, by receiver and by frame class.
enum class Site {
  kClientTcp,
  kPrimaryTcp,
  kBackupTcp,
  kPrimaryHeartbeat,
  kBackupHeartbeat,
  kHostOther,   // ARP, ICMP, control UDP at client/primary/backup
  kGateway,     // plain non-client hosts (the paper's gateway)
  kSwitch,      // switch ingress (self: excludes the wrapped tap)
  kRouter,      // router port receive + forwarding
  kTrunk,       // cross-shard channel enqueue
  kCheckerTap,  // the tap the Probe wrapped (the InvariantChecker)
  kCount,
};

struct Bucket {
  std::uint64_t count = 0;
  std::uint64_t self_ns = 0;
};

/// One blockstore request seen from outside, in simulated nanoseconds.
/// sent: the client delivery that triggered the send (SYN-ACK or previous
/// response); at_switch: request frame enters the switch; decided: first
/// primary heartbeat carrying its kOrder decision; acked: first backup
/// heartbeat whose decision_ack covers its last decision; released:
/// response frame enters the switch; parsed: response delivered to the
/// client. Consecutive differences are the spans; they sum to
/// parsed - sent, which is what the client measures.
struct RequestSpans {
  std::int64_t sent = -1, at_switch = -1, decided = -1, acked = -1,
               released = -1, parsed = -1;
  std::uint64_t last_seq = 0;
  bool complete() const {
    return sent >= 0 && at_switch >= sent && decided >= at_switch &&
           acked >= decided && released >= acked && parsed >= released;
  }
};

class Probe {
 public:
  struct Options {
    std::uint16_t hb_port = 7001;
    /// Request/response span tracking (the blockstore workload): the
    /// client host address and the service address its requests target.
    bool track_requests = false;
    net::Ipv4Addr client_ip;
    net::SocketAddr service;
    /// Failover stall: the first service->client payload frame from
    /// `survivor_mac` entering a switch after `crash_at`.
    sim::SimTime crash_at = sim::SimTime::never();
    net::Ipv4Addr service_ip;
    net::MacAddr survivor_mac;
  };

  /// Wraps every link port sink and switch tap of `topo`. Build it after the
  /// InvariantChecker (whose tap it wraps) and before traffic starts.
  Probe(harness::Topology& topo, Options opt);
  /// Restores the original sinks and taps.
  ~Probe();
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  const Bucket& bucket(Site s) const { return buckets_[static_cast<int>(s)]; }
  /// Host time spent inside top-level timed scopes (every sink delivery).
  std::uint64_t sink_ns() const { return sink_ns_; }
  /// Host time of probe analysis outside any timed scope.
  std::uint64_t probe_outer_ns() const { return probe_outer_ns_; }

  std::uint64_t switch_frames() const { return switch_frames_; }
  std::uint64_t switch_bytes() const { return switch_bytes_; }
  std::uint64_t beats() const { return beats_; }
  std::uint64_t beat_bytes() const { return beat_bytes_; }
  /// Simulated ms from crash_at to the survivor's first payload frame; -1
  /// if none was seen.
  double failover_stall_ms() const;

  /// Requests in the order their frames entered the switch.
  const std::vector<RequestSpans>& requests() const { return requests_; }
  /// Frames the request tracker could not place (must be zero).
  std::uint64_t unmatched() const { return unmatched_; }

 private:
  class TimedSink;
  struct Wrapped {
    net::Link::Port* port = nullptr;
    std::unique_ptr<TimedSink> sink;  // forwards to the port's original sink
  };
  enum class Kind { kClient, kPrimary, kBackup, kGateway, kSwitch, kRouter, kTrunk };
  /// Per-connection request state, keyed by the client's port.
  struct Conn {
    std::int64_t trigger = -1;    // last SYN-ACK or response delivery
    std::uint32_t req_next = 0;   // client->service: next new sequence
    std::uint32_t resp_next = 0;  // service->client at the switch
    std::uint32_t rx_next = 0;    // service->client at the client
    bool req_seen = false, resp_seen = false, rx_seen = false;
    std::vector<std::size_t> outstanding;  // requests awaiting a response
    std::vector<std::size_t> in_flight;    // responses awaiting delivery
  };

  static Kind kind_of(const net::FrameSink& sink, harness::Topology& topo);
  void deliver(TimedSink& s, net::Frame frame);
  void on_switch_frame(sim::SimTime at, const net::Frame& f);
  void on_heartbeat(sim::SimTime at, const std::uint8_t* udp_payload, std::size_t n);
  void on_client_rx(sim::SimTime at, const net::Frame& f);
  Site site_of(Kind kind, const net::Frame& f) const;
  void add_time(Site site, std::uint64_t total_ns);

  Options opt_;
  harness::Topology& topo_;
  std::vector<Wrapped> wrapped_;
  std::vector<net::EthernetSwitch::FrameTap> prev_taps_;

  Bucket buckets_[static_cast<int>(Site::kCount)];
  std::uint64_t child_ns_ = 0;  // nested time inside the current scope
  int depth_ = 0;
  std::uint64_t sink_ns_ = 0;
  std::uint64_t probe_outer_ns_ = 0;

  std::uint64_t switch_frames_ = 0, switch_bytes_ = 0;
  std::uint64_t beats_ = 0, beat_bytes_ = 0;
  std::int64_t stall_end_ = -1;

  // Request tracking.
  std::unordered_map<std::uint16_t, Conn> conns_;
  std::unordered_map<std::uint64_t, std::uint64_t> addr_requests_;
  std::unordered_map<std::uint64_t, std::size_t> by_order_;  // kOrder value
  std::vector<RequestSpans> requests_;
  std::uint64_t max_decision_seq_ = 0;
  std::size_t open_group_ = SIZE_MAX;      // request owning the newest seqs
  std::vector<std::size_t> awaiting_ack_;  // decided, not yet acked
  std::size_t ack_cursor_ = 0;
  std::uint64_t unmatched_ = 0;
};

}  // namespace sttcp::perfbench
