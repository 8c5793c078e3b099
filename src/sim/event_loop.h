// Discrete-event simulation loop.
//
// A single EventLoop owns the virtual clock for a whole simulated world.
// Components schedule callbacks at absolute or relative times; the loop
// executes them in strict timestamp order, breaking ties by scheduling order
// so that a given scenario is bit-for-bit reproducible.
//
// The loop is strictly single-threaded; no synchronization is needed or
// provided.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace sttcp::sim {

/// Opaque handle to a scheduled event, usable to cancel it.
/// Value 0 is reserved and never issued. Internally (slot << 32) | generation
/// — the slot indexes a generation table, so cancellation is an array compare
/// instead of hash-map traffic, and a stale handle can never cancel a
/// later event that reused its slot.
using TimerId = std::uint64_t;

class EventLoop {
 public:
  using Callback = std::function<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time. Advances only while events execute.
  SimTime now() const { return now_; }

  /// Schedule `cb` to run at absolute time `t`. Times in the past run at the
  /// current time (immediately after already-queued events for `now()`).
  TimerId schedule_at(SimTime t, Callback cb);

  /// Schedule `cb` to run `d` after the current time.
  TimerId schedule_after(Duration d, Callback cb) {
    return schedule_at(now_ + (d.is_negative() ? Duration::zero() : d), std::move(cb));
  }

  /// Cancel a pending event. Returns true if the event had not yet run.
  bool cancel(TimerId id);

  /// Execute the next pending event, if any. Returns false when idle.
  bool step();

  /// Run until the queue drains or `stop()` is called. Returns events run.
  std::uint64_t run();

  /// Run all events with timestamp <= t, then set the clock to exactly t.
  std::uint64_t run_until(SimTime t);

  /// Run all events with timestamp strictly < t, then set the clock to
  /// exactly t. Events at t itself stay pending (they run first on the next
  /// call). This is the conservative parallel executor's window primitive:
  /// a window [a, b) must not execute boundary events that could still
  /// receive same-timestamp cross-shard injections at b.
  std::uint64_t run_before(SimTime t);

  /// Run all events within the next `d` of virtual time.
  std::uint64_t run_for(Duration d) { return run_until(now_ + d); }

  /// Make `run()`/`run_until()` return after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const { return live_; }

  /// Total events executed since construction (diagnostics / runaway guard).
  std::uint64_t events_executed() const { return executed_; }

  /// Abort the process if a single run executes more than this many events.
  /// Guards against accidental infinite event ping-pong in tests. 0 disables.
  void set_event_budget(std::uint64_t budget) { budget_ = budget; }

  // --- interleaving-explorer hooks ---------------------------------------
  // The exhaustive schedule explorer (src/harness/explore.h) needs to see
  // the loop's ready set and force a chosen event to run out of timestamp
  // order, modeling bounded delivery/scheduling delay. Normal runs never
  // call these; both read the pending queue itself, so they cost nothing
  // when unused.

  /// One pending event as the explorer sees it.
  struct ReadyEvent {
    TimerId id;
    SimTime at;
    std::uint64_t seq;
  };

  /// All live pending events with `at` <= horizon, in (at, seq) order.
  /// O(n log n) in the queue size — intended for tiny exploration worlds,
  /// not hot paths.
  std::vector<ReadyEvent> ready_events(SimTime horizon) const;

  /// Earliest live pending timestamp, or SimTime::never() when idle.
  SimTime next_event_at();

  /// Force the given pending event to run now, advancing the clock to
  /// max(now, its timestamp) — an event executed *after* a later-stamped one
  /// runs late, which is exactly the delivery-delay semantics the explorer
  /// enumerates. Returns false if the id is stale. Execution order within a
  /// chosen sequence of run_event calls is total, so a replayed choice
  /// vector is bit-identical.
  bool run_event(TimerId id);

 private:
  // Pending events live in a 4-ary min-heap of small POD entries ordered by
  // (at, seq); the callback lives in a slot-indexed side vector. Cancel is
  // O(1): it bumps the slot's generation so the heap entry is recognized as
  // stale and discarded when it surfaces. A slot is returned to the free
  // list only when its entry leaves the heap, so at most one heap entry ever
  // references a slot. (at, seq) is a total order, so the pop order — and
  // with it every fixed-seed run — does not depend on the heap's shape.
  struct Entry {
    SimTime at;
    std::uint64_t seq = 0;   // tie-break: FIFO among equal timestamps
    std::uint32_t slot = 0;  // callback slot
    std::uint32_t gen = 0;   // generation the slot had when scheduled
    bool operator<(const Entry& o) const { return at != o.at ? at < o.at : seq < o.seq; }
  };

  /// Restore the heap order for the entry at index i, moving it up/down.
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Pop the earliest heap entry and release its slot; returns the entry.
  Entry pop_top();
  /// Discard stale (cancelled) entries at the top of the heap.
  void drop_stale_top();
  /// Remove every stale entry from the heap in one pass and re-heapify.
  /// Lazy cancellation leaves one dead entry per cancel until it surfaces;
  /// workloads that re-arm timers constantly (an RTO re-armed on every ACK
  /// across thousands of churning connections) would otherwise grow the
  /// heap far past the live event count.
  void compact();

  SimTime now_;
  std::vector<Entry> heap_;          // 4-ary min-heap over (at, seq)
  std::vector<std::uint32_t> gens_;  // slot -> current live generation
  std::vector<Callback> cbs_;        // slot -> pending callback
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t budget_ = 0;
  bool stopped_ = false;
};

/// A restartable one-shot timer bound to an EventLoop. Convenience wrapper
/// used by protocol state machines for retransmission / heartbeat / delay
/// timers: re-arming implicitly cancels the previous shot, and destruction
/// cancels any pending shot (no callbacks into destroyed objects). The timer
/// owns its callback; the loop event captures only `this`, so arming
/// allocates nothing beyond what the callback itself needs.
class ClockDomain;  // sim/clock_domain.h — per-host grey-failure skew

class OneShotTimer {
 public:
  explicit OneShotTimer(EventLoop& loop) : loop_(loop) {}
  /// Bind to a host's ClockDomain instead: while the domain is healthy this
  /// is identical to the EventLoop form; under an active LagProfile the
  /// timer's callbacks slide out of the stall windows with the host's CPU.
  explicit OneShotTimer(ClockDomain& domain);
  ~OneShotTimer() { cancel(); }
  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;

  /// Arm (or re-arm) to fire `d` from now.
  void arm(Duration d, EventLoop::Callback cb);
  /// Arm (or re-arm) to fire at absolute time `t`.
  void arm_at(SimTime t, EventLoop::Callback cb);
  /// Disarm and release the callback (its captures are destroyed now).
  void cancel();
  bool armed() const { return id_ != 0; }
  /// Absolute expiry time, or SimTime::never() when unarmed.
  SimTime deadline() const { return id_ != 0 ? deadline_ : SimTime::never(); }

 private:
  void fire();

  EventLoop& loop_;
  ClockDomain* domain_ = nullptr;  // set iff constructed from a ClockDomain
  TimerId id_ = 0;
  SimTime deadline_;
  EventLoop::Callback cb_;
};

/// A periodic timer: fires every `period` until stopped or destroyed.
class PeriodicTimer {
 public:
  explicit PeriodicTimer(EventLoop& loop) : loop_(loop) {}
  /// ClockDomain-bound form; see OneShotTimer.
  explicit PeriodicTimer(ClockDomain& domain);
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Start firing `cb` every `period`, first shot after `period`.
  void start(Duration period, EventLoop::Callback cb);
  void stop();
  bool running() const { return id_ != 0; }
  Duration period() const { return period_; }

 private:
  void fire();
  TimerId schedule_next();

  EventLoop& loop_;
  ClockDomain* domain_ = nullptr;  // set iff constructed from a ClockDomain
  TimerId id_ = 0;
  Duration period_;
  EventLoop::Callback cb_;
};

}  // namespace sttcp::sim
