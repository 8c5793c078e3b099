#include "sim/event_loop.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "sim/clock_domain.h"

namespace sttcp::sim {

namespace {

constexpr std::size_t kArity = 4;

}  // namespace

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
    cbs_.push_back(std::move(cb));
  }
  const std::uint32_t gen = gens_[slot];
  heap_.push_back(Entry{t, next_seq_++, slot, gen});
  sift_up(heap_.size() - 1);
  ++live_;
  return (static_cast<TimerId>(slot) << 32) | gen;
}

void EventLoop::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!(e < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventLoop::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    if (!(heap_[best] < e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

std::vector<EventLoop::ReadyEvent> EventLoop::ready_events(SimTime horizon) const {
  std::vector<ReadyEvent> out;
  for (const Entry& e : heap_) {
    if (gens_[e.slot] != e.gen || e.at > horizon) continue;
    out.push_back(ReadyEvent{(static_cast<TimerId>(e.slot) << 32) | e.gen, e.at, e.seq});
  }
  std::sort(out.begin(), out.end(), [](const ReadyEvent& a, const ReadyEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  });
  return out;
}

SimTime EventLoop::next_event_at() {
  drop_stale_top();
  return heap_.empty() ? SimTime::never() : heap_.front().at;
}

bool EventLoop::run_event(TimerId id) {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id);
  if (slot >= gens_.size() || gens_[slot] != gen || gen == 0) return false;
  // A live id has exactly one heap entry; find its timestamp.
  const auto it = std::find_if(heap_.begin(), heap_.end(), [&](const Entry& e) {
    return e.slot == slot && e.gen == gen;
  });
  // Consume like cancel(): bump the generation so the heap entry is
  // recognised as stale when it surfaces (which also recycles the slot).
  const Callback cb = std::move(cbs_[slot]);
  if (++gens_[slot] == 0) gens_[slot] = 1;
  --live_;
  if (it->at > now_) now_ = it->at;
  ++executed_;
  cb();
  return true;
}

bool EventLoop::cancel(TimerId id) {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id);
  if (slot >= gens_.size() || gens_[slot] != gen || gen == 0) return false;
  // Invalidate: the heap entry no longer matches and will be discarded when
  // it surfaces; the slot is recycled at that point.
  if (++gens_[slot] == 0) gens_[slot] = 1;
  --live_;
  // Bound the dead-entry backlog: when stale entries dominate the heap,
  // sweep them out instead of waiting for each to surface.
  if (heap_.size() >= 64 && heap_.size() > 2 * (live_ + 32)) compact();
  return true;
}

void EventLoop::compact() {
  std::size_t kept = 0;
  for (const Entry& e : heap_) {
    if (gens_[e.slot] == e.gen) {
      heap_[kept++] = e;
    } else {
      cbs_[e.slot] = nullptr;  // destroy the cancelled callback's captures
      free_slots_.push_back(e.slot);
    }
  }
  heap_.resize(kept);
  // Floyd's heapify: sift every internal node down, the last one first.
  if (kept > 1) {
    for (std::size_t i = (kept - 2) / kArity + 1; i-- > 0;) sift_down(i);
  }
}

EventLoop::Entry EventLoop::pop_top() {
  const Entry e = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  // The slot's only heap entry is gone: retire the generation (so the
  // original TimerId can no longer cancel anything) and free the slot.
  if (gens_[e.slot] == e.gen) {
    if (++gens_[e.slot] == 0) gens_[e.slot] = 1;
  }
  free_slots_.push_back(e.slot);
  return e;
}

void EventLoop::drop_stale_top() {
  while (!heap_.empty() && gens_[heap_.front().slot] != heap_.front().gen) {
    const Entry e = pop_top();
    cbs_[e.slot] = nullptr;  // destroy the cancelled callback's captures now
  }
}

bool EventLoop::step() {
  while (!heap_.empty()) {
    const bool was_live = gens_[heap_.front().slot] == heap_.front().gen;
    const Entry e = pop_top();
    // Take the callback out before running it: it may reuse the freed slot.
    const Callback cb = std::move(cbs_[e.slot]);
    if (!was_live) continue;  // cancelled: discard silently
    --live_;
    // An event run_event() skipped past runs late, at the current time:
    // the clock never moves backwards.
    if (e.at > now_) now_ = e.at;
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
    if (heap_.empty() || heap_.front().at > t) break;
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
    if (heap_.empty() || heap_.front().at >= t) break;
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
