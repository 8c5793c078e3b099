// Point-to-point Ethernet link with latency, bandwidth serialization,
// deterministic random loss, and fail/heal control.
//
// A Link has two ports (0 and 1). Whatever is attached to a port (a NIC or a
// switch port) implements FrameSink to receive frames and calls
// Port::send() to transmit toward the other side.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/bytes.h"
#include "net/frame.h"
#include "net/impairment.h"
#include "obs/metrics.h"
#include "sim/world.h"

namespace sttcp::net {

/// Anything that can receive an Ethernet frame from a link. The Frame shares
/// its buffer with every other holder; sinks must not assume exclusivity.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void deliver_frame(Frame frame) = 0;
};

class Link {
 public:
  struct Stats {
    std::uint64_t frames_sent = 0;      // accepted for transmission
    std::uint64_t frames_delivered = 0; // arrived at the far sink
    std::uint64_t frames_dropped = 0;   // random loss / burst loss / link down
    std::uint64_t bytes_delivered = 0;
  };

  /// `bandwidth_bps` == 0 means infinite (no serialization delay).
  Link(sim::World& world, sim::Duration latency, std::uint64_t bandwidth_bps,
       double drop_probability = 0.0);

  class Port {
   public:
    void set_sink(FrameSink* sink) { sink_ = sink; }
    /// Whatever is attached to this port (null before attachment). The
    /// cross-shard channel uses this to inject frames into the attachee as
    /// if they had crossed the link in-world.
    FrameSink* sink() const { return sink_; }
    /// Transmit a frame toward the other side of the link. Sending the same
    /// Frame out several ports shares one buffer (refcount, not copy).
    void send(Frame frame) { link_->transmit(index_, std::move(frame)); }

   private:
    friend class Link;
    Link* link_ = nullptr;
    int index_ = 0;
    FrameSink* sink_ = nullptr;
  };

  Port& port(int i) { return ports_[i]; }

  void fail() { failed_ = true; }
  void heal() { failed_ = false; }
  bool failed() const { return failed_; }

  /// Drop the next `n` frames in each direction (models a temporary fault
  /// such as a NIC buffer overflow; used by the missed-byte recovery tests).
  void drop_next(int n) { burst_drop_ = n; }

  /// Change random loss probability at runtime.
  void set_drop_probability(double p) { drop_probability_ = p; }

  /// Selective fault injection: frames matching the predicate are dropped
  /// (e.g. "frames longer than 200 bytes" models a fault that loses bulk
  /// data while small control traffic survives). nullptr clears it.
  using DropFilter = std::function<bool(const Frame& frame)>;
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }

  /// Adversarial impairment engine (burst loss, corruption, duplication,
  /// reordering, jitter — see net/impairment.h). Created on first access
  /// with an Rng forked from the world; a link that never asks for it pays
  /// one null check per frame and consumes no randomness, so pre-existing
  /// seed-tuned scenarios stay bit-identical.
  Impairment& impairment();
  /// The engine if it was ever created, else null (stats export).
  const Impairment* impairment_ptr() const { return impairment_.get(); }

  sim::Duration latency() const { return latency_; }
  const Stats& stats() const { return stats_; }

  /// Bind live telemetry under `prefix` (e.g. "net.link.client"): a
  /// serialization-queue delay histogram and an in-flight depth gauge.
  /// Cumulative frame/byte/drop counters are exported from Stats by the
  /// harness snapshot instead. No-op cost when never called.
  void bind_metrics(obs::MetricsRegistry& registry, const std::string& prefix);

 private:
  void transmit(int from_port, Frame frame);
  /// The delivery event of the frame parked in `slot`.
  void deliver(int to_port, std::uint32_t slot);
  std::int64_t in_flight_count() const {
    return static_cast<std::int64_t>(in_flight_frames_.size() - free_slots_.size());
  }

  sim::World& world_;
  sim::Duration latency_;
  std::uint64_t bandwidth_bps_;
  double drop_probability_;
  sim::Rng rng_;
  Port ports_[2];
  sim::SimTime busy_until_[2];  // per-direction serialization queue tail
  sim::SimTime last_arrival_[2];  // order-preserving clamp for jittered frames
  std::unique_ptr<Impairment> impairment_;
  int burst_drop_ = 0;
  DropFilter drop_filter_;
  bool failed_ = false;
  Stats stats_;

  // Frames on the wire, parked by slot until their delivery event runs. The
  // event captures only (this, port, slot), which std::function stores
  // without a heap allocation; a freed slot is reused by the next frame.
  std::vector<Frame> in_flight_frames_;
  std::vector<std::uint32_t> free_slots_;

  // Telemetry (null unless bind_metrics was called).
  obs::Histogram* queue_delay_us_ = nullptr;
  obs::Gauge* in_flight_ = nullptr;
};

}  // namespace sttcp::net
