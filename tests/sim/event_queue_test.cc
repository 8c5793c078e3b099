// EventLoop pending-queue tests.
//
// The queue's contract is strict (timestamp, scheduling-seq) execution order
// with O(1) lazy cancellation: every case here checks the loop against a
// reference that simply sorts by (at, seq).
#include <algorithm>
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_loop.h"
#include "sim/random.h"
#include "sim/time.h"

namespace sttcp::sim {
namespace {

TEST(EventQueue, PopsInTimestampSeqOrder) {
  EventLoop loop;
  // Deliberately adversarial spread: adjacent nanoseconds, far futures,
  // duplicate timestamps, out-of-order inserts.
  const std::int64_t times[] = {0,    1,       1,      1023,    1024,
                                4095, 70000,   70000,  1 << 20, 1 << 21,
                                5,    1 << 28, 999999, 3,       1024};
  struct Ran {
    std::int64_t at;
    std::size_t seq;
  };
  std::vector<Ran> ran;
  for (std::size_t i = 0; i < std::size(times); ++i) {
    loop.schedule_at(SimTime::from_ns(times[i]),
                     [&ran, &loop, i] { ran.push_back({loop.now().ns(), i}); });
  }
  EXPECT_EQ(loop.pending(), std::size(times));
  loop.run();
  ASSERT_EQ(ran.size(), std::size(times));
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i].at, times[ran[i].seq]) << "ran at its own timestamp";
    if (i > 0) {
      EXPECT_TRUE(ran[i].at > ran[i - 1].at ||
                  (ran[i].at == ran[i - 1].at && ran[i].seq > ran[i - 1].seq))
          << "out of (at, seq) order at position " << i;
    }
  }
}

TEST(EventQueue, RandomizedAgainstSortReference) {
  // Phases of inserts (some in the past, some very far ahead), cancels and
  // partial drains, so pops interleave with inserts on a heap whose shape
  // keeps changing; compaction fires along the way.
  struct Ref {
    TimerId id;
    SimTime at;
    std::uint64_t seq;
    int tag;
  };
  const auto sorted = [](std::vector<Ref> v) {
    std::sort(v.begin(), v.end(), [](const Ref& a, const Ref& b) {
      return a.at != b.at ? a.at < b.at : a.seq < b.seq;
    });
    return v;
  };
  Rng rng(0x57ee1);
  EventLoop loop;
  std::vector<Ref> live;  // what the reference expects to be pending
  std::vector<int> got;
  std::uint64_t seq = 0;
  int tag = 0;
  for (int round = 0; round < 60; ++round) {
    const std::int64_t now_ns = loop.now().ns();
    const int inserts = static_cast<int>(rng.below(200)) + 1;
    for (int i = 0; i < inserts; ++i) {
      std::int64_t t;
      switch (rng.below(5)) {
        case 0: t = now_ns + static_cast<std::int64_t>(rng.below(1024)); break;
        case 1: t = now_ns + static_cast<std::int64_t>(rng.below(1 << 16)); break;
        case 2: t = now_ns + static_cast<std::int64_t>(rng.below(1ull << 32)); break;
        case 3:
          // In the past: clamped to now, after everything already due now.
          t = now_ns - static_cast<std::int64_t>(rng.below(1000));
          break;
        default:
          t = now_ns + static_cast<std::int64_t>(rng.below(1ull << 50)) +
              (std::int64_t{1} << 47);
          break;
      }
      const SimTime at = std::max(SimTime::from_ns(t), loop.now());
      const TimerId id = loop.schedule_at(SimTime::from_ns(t),
                                          [&got, tag] { got.push_back(tag); });
      live.push_back(Ref{id, at, seq++, tag++});
    }
    // Cancel a random share of what is pending.
    const std::size_t cancels = rng.below(live.size() + 1);
    for (std::size_t i = 0; i < cancels; ++i) {
      const std::size_t k = rng.below(live.size());
      ASSERT_TRUE(loop.cancel(live[k].id));
      EXPECT_FALSE(loop.cancel(live[k].id)) << "a cancelled id is stale";
      live[k] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(loop.pending(), live.size());

    // Run a random prefix of the reference order.
    live = sorted(std::move(live));
    const std::size_t pops = rng.below(live.size() + 1);
    got.clear();
    for (std::size_t i = 0; i < pops; ++i) ASSERT_TRUE(loop.step());
    ASSERT_EQ(got.size(), pops);
    for (std::size_t i = 0; i < pops; ++i) {
      ASSERT_EQ(got[i], live[i].tag) << "round " << round << " pop " << i;
    }
    if (pops > 0) {
      EXPECT_EQ(loop.now(), live[pops - 1].at);
    }
    live.erase(live.begin(), live.begin() + static_cast<std::ptrdiff_t>(pops));
    ASSERT_EQ(loop.pending(), live.size());
  }
  // Drain: whatever is left runs exactly in reference order.
  live = sorted(std::move(live));
  got.clear();
  EXPECT_EQ(loop.run(), live.size());
  ASSERT_EQ(got.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) ASSERT_EQ(got[i], live[i].tag);
}

TEST(EventQueue, CompactionDropsCancelledCaptures) {
  // A cancel storm: every callback holds a copy of `token`, so its use count
  // is 1 + the callbacks the loop still stores. Lazy cancellation may keep
  // a bounded backlog of dead entries (at most live + 64), but the sweep
  // must destroy cancelled callbacks' captures instead of letting 10k of
  // them pile up behind the few live events.
  EventLoop loop;
  auto token = std::make_shared<int>(0);
  constexpr int kEvents = 10000;
  constexpr int kSurvivors = 10;
  std::vector<TimerId> ids;
  int fired = 0;
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(loop.schedule_at(SimTime::from_ns(1000 + i),
                                   [token, &fired] { fired += *token + 1; }));
  }
  EXPECT_EQ(token.use_count(), 1 + kEvents);
  std::size_t max_backlog = 0;
  for (int i = kSurvivors; i < kEvents; ++i) {
    ASSERT_TRUE(loop.cancel(ids[static_cast<std::size_t>(i)]));
    ASSERT_EQ(loop.pending(), static_cast<std::size_t>(kEvents - (i - kSurvivors) - 1));
    const auto stored = static_cast<std::size_t>(token.use_count() - 1);
    const std::size_t backlog = stored - loop.pending();
    max_backlog = std::max(max_backlog, backlog);
    ASSERT_LE(backlog, loop.pending() + 64) << "after cancel " << i;
  }
  EXPECT_GT(max_backlog, 0u) << "cancellation is lazy between sweeps";
  EXPECT_EQ(loop.pending(), static_cast<std::size_t>(kSurvivors));
  EXPECT_LE(token.use_count(), 1 + kSurvivors + kSurvivors + 64);
  EXPECT_EQ(loop.run(), static_cast<std::uint64_t>(kSurvivors));
  EXPECT_EQ(fired, kSurvivors);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(token.use_count(), 1) << "every callback released once drained";
}

TEST(EventQueue, ExplorerHooksMatchQueue) {
  // ready_events()/run_event() read the heap itself: after a cancel storm
  // has compacted it, the ready set must still be exactly the live events
  // (id, at, seq) in (at, seq) order, and forced runs must execute the
  // chosen callback at max(now, its stamp).
  EventLoop loop;
  struct Want {
    TimerId id;
    SimTime at;
    std::uint64_t seq;
    int tag;
  };
  std::vector<Want> want;
  std::vector<int> got;
  std::uint64_t seq = 0;
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const SimTime at = SimTime::from_ns(static_cast<std::int64_t>(rng.below(50)) * 1000);
    const TimerId id = loop.schedule_at(at, [&got, i] { got.push_back(i); });
    want.push_back({id, at, seq++, i});
  }
  // Cancel all but every 25th event: enough to trigger compaction.
  std::vector<Want> kept;
  for (const Want& w : want) {
    if (w.tag % 25 == 0) {
      kept.push_back(w);
    } else {
      ASSERT_TRUE(loop.cancel(w.id));
    }
  }
  std::sort(kept.begin(), kept.end(), [](const Want& a, const Want& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });
  const SimTime horizon = SimTime::from_ns(30'000);
  auto ready = loop.ready_events(horizon);
  std::vector<Want> expect;
  for (const Want& w : kept) {
    if (w.at <= horizon) expect.push_back(w);
  }
  ASSERT_EQ(ready.size(), expect.size());
  for (std::size_t i = 0; i < ready.size(); ++i) {
    EXPECT_EQ(ready[i].id, expect[i].id);
    EXPECT_EQ(ready[i].at, expect[i].at);
    EXPECT_EQ(ready[i].seq, expect[i].seq);
  }
  ASSERT_EQ(loop.ready_events(SimTime::never()).size(), kept.size());
  EXPECT_EQ(loop.next_event_at(), kept.front().at);

  // Force the latest ready event first, then the earliest: the clock jumps
  // to the first one's stamp and does not rewind for the second.
  ASSERT_GE(expect.size(), 2u);
  const Want& late = expect.back();
  const Want& early = expect.front();
  ASSERT_LT(early.at, late.at);
  EXPECT_TRUE(loop.run_event(late.id));
  EXPECT_EQ(loop.now(), late.at);
  EXPECT_FALSE(loop.run_event(late.id)) << "consumed ids are stale";
  EXPECT_TRUE(loop.run_event(early.id));
  EXPECT_EQ(loop.now(), late.at) << "late events do not rewind time";
  EXPECT_EQ(got, (std::vector<int>{late.tag, early.tag}));
  EXPECT_EQ(loop.pending(), kept.size() - 2);
  ready = loop.ready_events(SimTime::never());
  ASSERT_EQ(ready.size(), kept.size() - 2);
  for (const auto& r : ready) {
    EXPECT_NE(r.id, late.id);
    EXPECT_NE(r.id, early.id);
  }

  // The rest drain in (at, seq) order, never re-running the forced two.
  got.clear();
  loop.run();
  std::vector<int> rest;
  for (const Want& w : kept) {
    if (w.id != late.id && w.id != early.id) rest.push_back(w.tag);
  }
  EXPECT_EQ(got, rest);
}

TEST(EventQueue, StepNeverRewindsClock) {
  // The explorer may force a later event first; the earlier one it skipped
  // then runs late, at the advanced clock, never at its own older stamp.
  EventLoop loop;
  std::vector<SimTime> ran_at;
  loop.schedule_at(SimTime::from_ns(10'000'000),
                   [&] { ran_at.push_back(loop.now()); });
  const TimerId b = loop.schedule_at(SimTime::from_ns(20'000'000),
                                     [&] { ran_at.push_back(loop.now()); });
  ASSERT_TRUE(loop.run_event(b));
  EXPECT_EQ(loop.now(), SimTime::from_ns(20'000'000));
  ASSERT_TRUE(loop.step());
  EXPECT_EQ(loop.now(), SimTime::from_ns(20'000'000));
  ASSERT_EQ(ran_at.size(), 2u);
  EXPECT_EQ(ran_at[1], SimTime::from_ns(20'000'000));
}

TEST(EventQueue, SameTickFifoOrder) {
  EventLoop loop;
  std::vector<int> order;
  // All at the same nanosecond: must run in scheduling order.
  for (int i = 0; i < 100; ++i) {
    loop.schedule_at(SimTime::from_ns(500), [&order, i] { order.push_back(i); });
  }
  loop.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ArmCancelRearmStorm) {
  EventLoop loop;
  Rng rng(7);
  // 10k timers constantly re-armed (the RTO-on-every-ACK pattern): the
  // lazily-cancelled backlog must be swept, not accumulated, and the
  // surviving shots must fire in order.
  constexpr int kTimers = 10000;
  std::vector<TimerId> ids(kTimers, 0);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < kTimers; ++i) {
      if (ids[static_cast<std::size_t>(i)] != 0) {
        loop.cancel(ids[static_cast<std::size_t>(i)]);
      }
      const auto d = Duration::micros(static_cast<std::int64_t>(rng.below(200000)) + 1);
      ids[static_cast<std::size_t>(i)] = loop.schedule_after(d, [] {});
    }
  }
  EXPECT_EQ(loop.pending(), static_cast<std::size_t>(kTimers));
  std::uint64_t ran = loop.run();
  EXPECT_EQ(ran, static_cast<std::uint64_t>(kTimers));
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventQueue, FarFutureOrder) {
  EventLoop loop;
  std::vector<int> order;
  // Hours and days ahead, interleaved with near events.
  loop.schedule_at(SimTime::from_ns(Duration::seconds(86400 * 30).ns()),
                   [&] { order.push_back(4); });
  loop.schedule_at(SimTime::from_ns(Duration::seconds(7200).ns()),
                   [&] { order.push_back(3); });
  loop.schedule_at(SimTime::from_ns(Duration::millis(1).ns()),
                   [&] { order.push_back(1); });
  loop.schedule_at(SimTime::from_ns(Duration::seconds(1).ns()),
                   [&] { order.push_back(2); });
  loop.schedule_at(SimTime::from_ns(0), [&] { order.push_back(0); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(loop.now().ns(), Duration::seconds(86400 * 30).ns());
}

TEST(EventQueue, RunBeforeExcludesBoundary) {
  EventLoop loop;
  int before = 0, at = 0;
  loop.schedule_at(SimTime::from_ns(999), [&] { ++before; });
  loop.schedule_at(SimTime::from_ns(1000), [&] { ++at; });
  loop.schedule_at(SimTime::from_ns(1000), [&] { ++at; });
  EXPECT_EQ(loop.run_before(SimTime::from_ns(1000)), 1u);
  EXPECT_EQ(before, 1);
  EXPECT_EQ(at, 0);
  EXPECT_EQ(loop.now(), SimTime::from_ns(1000));
  // Boundary events are still pending and run first on the next call.
  EXPECT_EQ(loop.pending(), 2u);
  EXPECT_EQ(loop.run_until(SimTime::from_ns(1000)), 2u);
  EXPECT_EQ(at, 2);
}

TEST(EventQueue, CancelFarAndNear) {
  EventLoop loop;
  int fired = 0;
  const TimerId far_id = loop.schedule_at(
      SimTime::from_ns(Duration::seconds(3600).ns()), [&] { ++fired; });
  const TimerId near_id =
      loop.schedule_at(SimTime::from_ns(100), [&] { ++fired; });
  loop.schedule_at(SimTime::from_ns(Duration::seconds(3600).ns() + 5),
                   [&] { ++fired; });
  EXPECT_TRUE(loop.cancel(far_id));
  EXPECT_TRUE(loop.cancel(near_id));
  EXPECT_FALSE(loop.cancel(far_id));  // already cancelled
  loop.run();
  EXPECT_EQ(fired, 1);
}

// A miniature reference loop that sorts by (at, seq), used to cross-check a
// randomized schedule-then-run interleaving end to end.
struct SortRef {
  struct E {
    SimTime at;
    std::uint64_t seq;
    int tag;
  };
  std::vector<E> v;
  std::uint64_t seq = 0;
  SimTime now;
  void schedule(SimTime t, int tag) {
    if (t < now) t = now;
    v.push_back({t, seq++, tag});
  }
  std::vector<int> run_all() {
    std::sort(v.begin(), v.end(), [](const E& a, const E& b) {
      return a.at != b.at ? a.at < b.at : a.seq < b.seq;
    });
    std::vector<int> tags;
    for (const E& e : v) tags.push_back(e.tag);
    v.clear();
    return tags;
  }
};

TEST(EventQueue, RandomizedOrderMatchesHeapSemantics) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EventLoop loop;
    Rng rng(seed);
    SortRef ref;
    std::vector<int> got;
    int tag = 0;
    for (int i = 0; i < 3000; ++i) {
      const auto t = SimTime::from_ns(static_cast<std::int64_t>(rng.below(1ull << 34)));
      loop.schedule_at(t, [&got, tag] { got.push_back(tag); });
      ref.schedule(t, tag);
      ++tag;
    }
    loop.run();
    EXPECT_EQ(got, ref.run_all()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sttcp::sim
