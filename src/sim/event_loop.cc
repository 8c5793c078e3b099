#include "sim/event_loop.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "sim/clock_domain.h"

namespace sttcp::sim {

TimerId EventLoop::schedule_at(SimTime t, Callback cb) {
  if (t < now_) t = now_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    cbs_[slot] = std::move(cb);
  } else {
    slot = static_cast<std::uint32_t>(gens_.size());
    gens_.push_back(1);  // generation 0 is never issued, so no TimerId is 0
    meta_.emplace_back();
    cbs_.push_back(std::move(cb));
  }
  const std::uint32_t gen = gens_[slot];
  const std::uint64_t seq = next_seq_++;
  meta_[slot] = SlotMeta{t, seq, gen};
  wheel_.push(WheelEntry{t, seq, slot, gen});
  ++live_;
  return (static_cast<TimerId>(slot) << 32) | gen;
}

std::vector<EventLoop::ReadyEvent> EventLoop::ready_events(SimTime horizon) const {
  std::vector<ReadyEvent> out;
  for (std::uint32_t slot = 0; slot < gens_.size(); ++slot) {
    const SlotMeta& m = meta_[slot];
    if (m.gen == 0 || m.gen != gens_[slot] || m.at > horizon) continue;
    out.push_back(ReadyEvent{(static_cast<TimerId>(slot) << 32) | m.gen, m.at, m.seq});
  }
  std::sort(out.begin(), out.end(), [](const ReadyEvent& a, const ReadyEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  });
  return out;
}

SimTime EventLoop::next_event_at() {
  drop_stale_top();
  return wheel_.empty() ? SimTime::never() : wheel_.peek_min().at;
}

bool EventLoop::run_event(TimerId id) {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id);
  if (slot >= gens_.size() || gens_[slot] != gen || gen == 0) return false;
  // Consume like cancel(): bump the generation so the wheel entry is
  // recognised as stale when it surfaces (which also recycles the slot).
  const Callback cb = std::move(cbs_[slot]);
  if (++gens_[slot] == 0) gens_[slot] = 1;
  --live_;
  if (meta_[slot].at > now_) now_ = meta_[slot].at;
  ++executed_;
  cb();
  return true;
}

bool EventLoop::cancel(TimerId id) {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id);
  if (slot >= gens_.size() || gens_[slot] != gen || gen == 0) return false;
  // Invalidate: the wheel entry (still bucketed) no longer matches and will
  // be discarded when it surfaces; the slot is recycled at that point.
  if (++gens_[slot] == 0) gens_[slot] = 1;
  --live_;
  // Bound the dead-entry backlog: when stale entries dominate the wheel,
  // sweep them out instead of waiting for each to surface.
  if (wheel_.size() >= 64 && wheel_.size() > 2 * (live_ + 32)) compact();
  return true;
}

void EventLoop::compact() {
  wheel_.sweep(
      [this](const WheelEntry& e) { return gens_[e.slot] != e.gen; },
      [this](const WheelEntry& e) {
        cbs_[e.slot] = nullptr;  // destroy the cancelled callback's captures
        free_slots_.push_back(e.slot);
      });
}

WheelEntry EventLoop::pop_top() {
  const WheelEntry e = wheel_.pop_min();
  // The slot's only wheel entry is gone: retire the generation (so the
  // original TimerId can no longer cancel anything) and free the slot.
  if (gens_[e.slot] == e.gen) {
    if (++gens_[e.slot] == 0) gens_[e.slot] = 1;
  }
  free_slots_.push_back(e.slot);
  return e;
}

void EventLoop::drop_stale_top() {
  while (!wheel_.empty()) {
    const WheelEntry& top = wheel_.peek_min();
    if (gens_[top.slot] == top.gen) break;
    const WheelEntry e = pop_top();
    cbs_[e.slot] = nullptr;  // destroy the cancelled callback's captures now
  }
}

bool EventLoop::step() {
  while (!wheel_.empty()) {
    const WheelEntry& top = wheel_.peek_min();
    const bool was_live = gens_[top.slot] == top.gen;
    const WheelEntry e = pop_top();
    // Take the callback out before running it: it may reuse the freed slot.
    const Callback cb = std::move(cbs_[e.slot]);
    if (!was_live) continue;  // cancelled: discard silently
    --live_;
    now_ = e.at;
    ++executed_;
    if (budget_ != 0 && executed_ > budget_) {
      std::fprintf(stderr, "EventLoop: event budget (%llu) exceeded at t=%s\n",
                   static_cast<unsigned long long>(budget_), now_.str().c_str());
      std::abort();
    }
    cb();
    return true;
  }
  return false;
}

std::uint64_t EventLoop::run() {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && step()) ++n;
  return n;
}

std::uint64_t EventLoop::run_until(SimTime t) {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_) {
    // Skip over cancelled entries to find the true next timestamp.
    drop_stale_top();
    if (wheel_.empty() || wheel_.peek_min().at > t) break;
    if (step()) ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

std::uint64_t EventLoop::run_before(SimTime t) {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_) {
    drop_stale_top();
    if (wheel_.empty() || wheel_.peek_min().at >= t) break;
    if (step()) ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

OneShotTimer::OneShotTimer(ClockDomain& domain)
    : loop_(domain.loop()), domain_(&domain) {}

void OneShotTimer::arm(Duration d, EventLoop::Callback cb) {
  arm_at(loop_.now() + (d.is_negative() ? Duration::zero() : d), std::move(cb));
}

void OneShotTimer::arm_at(SimTime t, EventLoop::Callback cb) {
  cancel();
  deadline_ = t;
  cb_ = std::move(cb);
  auto shot = [this] { fire(); };
  id_ = domain_ ? domain_->schedule_at(t, shot) : loop_.schedule_at(t, shot);
}

void OneShotTimer::fire() {
  // Disarm and take the callback out before invoking it: the callback may
  // re-arm this timer (storing a new cb_) or destroy it, so no member is
  // touched after the call.
  id_ = 0;
  EventLoop::Callback cb = std::move(cb_);
  cb();
}

void OneShotTimer::cancel() {
  if (id_ != 0) {
    if (domain_) {
      domain_->cancel(id_);
    } else {
      loop_.cancel(id_);
    }
    id_ = 0;
  }
  cb_ = nullptr;
}

PeriodicTimer::PeriodicTimer(ClockDomain& domain)
    : loop_(domain.loop()), domain_(&domain) {}

void PeriodicTimer::start(Duration period, EventLoop::Callback cb) {
  stop();
  period_ = period;
  cb_ = std::move(cb);
  id_ = schedule_next();
}

void PeriodicTimer::stop() {
  if (id_ != 0) {
    if (domain_) {
      domain_->cancel(id_);
    } else {
      loop_.cancel(id_);
    }
    id_ = 0;
  }
  cb_ = nullptr;
}

TimerId PeriodicTimer::schedule_next() {
  auto shot = [this] { fire(); };
  return domain_ ? domain_->schedule_after(period_, shot)
                 : loop_.schedule_after(period_, shot);
}

void PeriodicTimer::fire() {
  // Reschedule first: cb_ may call stop(), which must cancel the next shot.
  id_ = schedule_next();
  cb_();
}

}  // namespace sttcp::sim
