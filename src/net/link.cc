#include "net/link.h"

namespace sttcp::net {

Link::Link(sim::World& world, sim::Duration latency, std::uint64_t bandwidth_bps,
           double drop_probability)
    : world_(world),
      latency_(latency),
      bandwidth_bps_(bandwidth_bps),
      drop_probability_(drop_probability),
      rng_(world.rng().fork()) {
  for (int i = 0; i < 2; ++i) {
    ports_[i].link_ = this;
    ports_[i].index_ = i;
  }
}

void Link::bind_metrics(obs::MetricsRegistry& registry, const std::string& prefix) {
  queue_delay_us_ = &registry.histogram(prefix + ".queue_delay_us");
  in_flight_ = &registry.gauge(prefix + ".in_flight_frames");
}

Impairment& Link::impairment() {
  if (impairment_ == nullptr) {
    impairment_ = std::make_unique<Impairment>(world_.rng().fork());
  }
  return *impairment_;
}

void Link::transmit(int from_port, Frame frame) {
  ++stats_.frames_sent;
  if (failed_) {
    ++stats_.frames_dropped;
    return;
  }
  if (burst_drop_ > 0) {
    --burst_drop_;
    ++stats_.frames_dropped;
    return;
  }
  if (drop_probability_ > 0.0 && rng_.chance(drop_probability_)) {
    ++stats_.frames_dropped;
    return;
  }
  if (drop_filter_ && drop_filter_(frame)) {
    ++stats_.frames_dropped;
    return;
  }

  // Adversarial impairments (burst loss / corruption / duplication /
  // reordering / jitter). The engine only exists once someone armed it.
  int copies = 1;
  sim::Duration extra = sim::Duration::zero();
  bool preserve_order = false;
  if (impairment_ != nullptr && impairment_->active()) {
    Impairment::Plan p = impairment_->plan(from_port, std::move(frame));
    if (p.drop) {
      ++stats_.frames_dropped;
      return;
    }
    frame = std::move(p.frame);
    copies = p.copies;
    extra = p.extra_delay;
    preserve_order = !p.reordered;
    if (copies > 1) stats_.frames_sent += copies - 1;
  }

  for (int c = 0; c < copies; ++c) {
    // Serialization: each direction is a FIFO pipe; a frame occupies the
    // transmitter for size/bandwidth, queued behind earlier frames. A
    // duplicated frame occupies the wire twice.
    sim::SimTime start = world_.now();
    if (busy_until_[from_port] > start) start = busy_until_[from_port];
    sim::Duration tx_time = sim::Duration::zero();
    if (bandwidth_bps_ != 0) {
      tx_time = sim::Duration::nanos(
          static_cast<std::int64_t>(frame.size()) * 8 * 1000000000 /
          static_cast<std::int64_t>(bandwidth_bps_));
    }
    busy_until_[from_port] = start + tx_time;
    sim::SimTime arrive = busy_until_[from_port] + latency_ + extra;
    if (preserve_order) {
      // Jitter must not reorder by itself (reordering is an explicit knob):
      // clamp the arrival to the latest one already scheduled. Reordered
      // frames skip the clamp AND leave it untouched, so the frames behind
      // them genuinely overtake.
      if (arrive < last_arrival_[from_port]) arrive = last_arrival_[from_port];
      last_arrival_[from_port] = arrive;
    }

    if (queue_delay_us_ != nullptr) {
      queue_delay_us_->record(
          static_cast<std::uint64_t>((start - world_.now()).us()));
    }

    const int to_port = 1 - from_port;
    // The duplicate shares the buffer: copying the Frame bumps a refcount.
    Frame out = (c + 1 < copies) ? frame : std::move(frame);
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      in_flight_frames_[slot] = std::move(out);
    } else {
      slot = static_cast<std::uint32_t>(in_flight_frames_.size());
      in_flight_frames_.push_back(std::move(out));
    }
    if (in_flight_ != nullptr) in_flight_->set(in_flight_count());
    world_.loop().schedule_at(arrive, [this, to_port, slot] { deliver(to_port, slot); });
  }
}

void Link::deliver(int to_port, std::uint32_t slot) {
  Frame frame = std::move(in_flight_frames_[slot]);
  free_slots_.push_back(slot);
  if (in_flight_ != nullptr) in_flight_->set(in_flight_count());
  // A failure while the frame was in flight kills it: a dead cable
  // delivers nothing.
  if (failed_) {
    ++stats_.frames_dropped;
    return;
  }
  FrameSink* sink = ports_[to_port].sink_;
  if (sink == nullptr) {
    ++stats_.frames_dropped;
    return;
  }
  ++stats_.frames_delivered;
  stats_.bytes_delivered += frame.size();
  sink->deliver_frame(std::move(frame));
}

}  // namespace sttcp::net
