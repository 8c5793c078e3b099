#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace sttcp::sim {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(SimTime::from_ns(300), [&] { order.push_back(3); });
  loop.schedule_at(SimTime::from_ns(100), [&] { order.push_back(1); });
  loop.schedule_at(SimTime::from_ns(200), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), SimTime::from_ns(300));
}

TEST(EventLoopTest, TiesBreakFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(SimTime::from_ns(50), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  SimTime fired;
  loop.schedule_after(Duration::millis(10), [&] {
    loop.schedule_after(Duration::millis(5), [&] { fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired, SimTime::zero() + Duration::millis(15));
}

TEST(EventLoopTest, PastTimesClampToNow) {
  EventLoop loop;
  bool ran = false;
  loop.schedule_after(Duration::millis(10), [&] {
    loop.schedule_at(SimTime::zero(), [&] {
      ran = true;
      EXPECT_EQ(loop.now(), SimTime::zero() + Duration::millis(10));
    });
  });
  loop.run();
  EXPECT_TRUE(ran);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  TimerId id = loop.schedule_after(Duration::millis(1), [&] { ran = true; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // second cancel is a no-op
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(SimTime::from_ns(100), [&] { ++count; });
  loop.schedule_at(SimTime::from_ns(200), [&] { ++count; });
  loop.schedule_at(SimTime::from_ns(300), [&] { ++count; });
  loop.run_until(SimTime::from_ns(200));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), SimTime::from_ns(200));
  loop.run_until(SimTime::from_ns(250));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), SimTime::from_ns(250));  // idle time still advances
}

TEST(EventLoopTest, RunForIsRelative) {
  EventLoop loop;
  int count = 0;
  loop.schedule_after(Duration::millis(5), [&] { ++count; });
  loop.schedule_after(Duration::millis(15), [&] { ++count; });
  loop.run_for(Duration::millis(10));
  EXPECT_EQ(count, 1);
  loop.run_for(Duration::millis(10));
  EXPECT_EQ(count, 2);
}

TEST(EventLoopTest, StopHaltsRun) {
  EventLoop loop;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    loop.schedule_at(SimTime::from_ns(i), [&] {
      if (++count == 3) loop.stop();
    });
  }
  loop.run();
  EXPECT_EQ(count, 3);
  loop.run();  // resumes where it left off
  EXPECT_EQ(count, 10);
}

TEST(EventLoopTest, PendingCountsUncancelled) {
  EventLoop loop;
  TimerId a = loop.schedule_after(Duration::millis(1), [] {});
  loop.schedule_after(Duration::millis(2), [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoopTest, EventsExecutedCounter) {
  EventLoop loop;
  for (int i = 0; i < 5; ++i) loop.schedule_after(Duration::millis(i), [] {});
  loop.run();
  EXPECT_EQ(loop.events_executed(), 5u);
}

TEST(OneShotTimerTest, FiresOnceAndReportsDeadline) {
  EventLoop loop;
  OneShotTimer t(loop);
  int fired = 0;
  t.arm(Duration::millis(10), [&] { ++fired; });
  EXPECT_TRUE(t.armed());
  EXPECT_EQ(t.deadline(), SimTime::zero() + Duration::millis(10));
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
  EXPECT_TRUE(t.deadline().is_never());
}

TEST(OneShotTimerTest, RearmCancelsPrevious) {
  EventLoop loop;
  OneShotTimer t(loop);
  int a = 0;
  int b = 0;
  t.arm(Duration::millis(10), [&] { ++a; });
  t.arm(Duration::millis(20), [&] { ++b; });
  loop.run();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
}

TEST(OneShotTimerTest, CallbackCanRearm) {
  EventLoop loop;
  OneShotTimer t(loop);
  int fired = 0;
  std::function<void()> cb = [&] {
    if (++fired < 3) t.arm(Duration::millis(1), cb);
  };
  t.arm(Duration::millis(1), cb);
  loop.run();
  EXPECT_EQ(fired, 3);
}

TEST(OneShotTimerTest, DestructionCancels) {
  EventLoop loop;
  bool ran = false;
  {
    OneShotTimer t(loop);
    t.arm(Duration::millis(1), [&] { ran = true; });
  }
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(OneShotTimerTest, RearmedFromItsOwnCallbackFiresAgain) {
  EventLoop loop;
  OneShotTimer t(loop);
  std::vector<std::pair<int, SimTime>> fires;
  t.arm(Duration::millis(5), [&] {
    fires.emplace_back(1, loop.now());
    t.arm(Duration::millis(7), [&] { fires.emplace_back(2, loop.now()); });
    EXPECT_TRUE(t.armed());
  });
  loop.run();
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_EQ(fires[0], std::make_pair(1, SimTime::zero() + Duration::millis(5)));
  EXPECT_EQ(fires[1], std::make_pair(2, SimTime::zero() + Duration::millis(12)));
  EXPECT_FALSE(t.armed());
}

TEST(OneShotTimerTest, CancelReleasesCapturesAtOnce) {
  EventLoop loop;
  OneShotTimer t(loop);
  auto token = std::make_shared<int>(0);
  t.arm(Duration::millis(5), [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  t.cancel();
  EXPECT_EQ(token.use_count(), 1);  // not held until the stale event surfaces
  t.arm(Duration::millis(5), [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  loop.run();
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);  // a fired callback is released too
}

TEST(OneShotTimerTest, DestroyedInsideItsCallbackIsSafe) {
  EventLoop loop;
  auto t = std::make_unique<OneShotTimer>(loop);
  auto token = std::make_shared<int>(0);
  t->arm(Duration::millis(1), [&t, token] {
    t.reset();  // the timer dies while its callback runs
    ++*token;   // the captures are still alive until the call returns
  });
  loop.run();
  EXPECT_EQ(t, nullptr);
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(PeriodicTimerTest, FiresAtEachPeriod) {
  EventLoop loop;
  PeriodicTimer t(loop);
  std::vector<SimTime> fires;
  t.start(Duration::millis(100), [&] { fires.push_back(loop.now()); });
  loop.run_for(Duration::millis(350));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], SimTime::zero() + Duration::millis(100));
  EXPECT_EQ(fires[2], SimTime::zero() + Duration::millis(300));
}

TEST(PeriodicTimerTest, StopFromWithinCallback) {
  EventLoop loop;
  PeriodicTimer t(loop);
  int fired = 0;
  t.start(Duration::millis(10), [&] {
    if (++fired == 2) t.stop();
  });
  loop.run_for(Duration::seconds(1));
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(t.running());
}

}  // namespace
}  // namespace sttcp::sim
