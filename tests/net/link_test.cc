#include "net/link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/world.h"

namespace sttcp::net {
namespace {

class CollectSink final : public FrameSink {
 public:
  explicit CollectSink(sim::World& world) : world_(world) {}
  void deliver_frame(Frame frame) override {
    frames.push_back(std::move(frame));
    times.push_back(world_.now());
  }
  std::vector<Frame> frames;
  std::vector<sim::SimTime> times;

 private:
  sim::World& world_;
};

Bytes make_frame(std::size_t n) { return Bytes(n, 0xab); }

TEST(LinkTest, DeliversAfterLatency) {
  sim::World w;
  Link link(w, sim::Duration::millis(2), 0);
  CollectSink a(w), b(w);
  link.port(0).set_sink(&a);
  link.port(1).set_sink(&b);
  link.port(0).send(make_frame(100));
  w.loop().run();
  ASSERT_EQ(b.frames.size(), 1u);
  EXPECT_TRUE(a.frames.empty());
  EXPECT_EQ(b.times[0], sim::SimTime::zero() + sim::Duration::millis(2));
}

TEST(LinkTest, BandwidthSerializesBackToBack) {
  sim::World w;
  // 1 Mbps: a 1250-byte frame takes exactly 10 ms on the wire.
  Link link(w, sim::Duration::zero(), 1'000'000);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  link.port(0).send(make_frame(1250));
  link.port(0).send(make_frame(1250));
  w.loop().run();
  ASSERT_EQ(b.frames.size(), 2u);
  EXPECT_EQ(b.times[0], sim::SimTime::zero() + sim::Duration::millis(10));
  EXPECT_EQ(b.times[1], sim::SimTime::zero() + sim::Duration::millis(20));
}

TEST(LinkTest, DirectionsAreIndependentPipes) {
  sim::World w;
  Link link(w, sim::Duration::zero(), 1'000'000);
  CollectSink a(w), b(w);
  link.port(0).set_sink(&a);
  link.port(1).set_sink(&b);
  link.port(0).send(make_frame(1250));
  link.port(1).send(make_frame(1250));
  w.loop().run();
  // Both arrive at 10ms: no shared serialization between directions.
  ASSERT_EQ(a.frames.size(), 1u);
  ASSERT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(a.times[0], b.times[0]);
}

TEST(LinkTest, FailedLinkDropsEverything) {
  sim::World w;
  Link link(w, sim::Duration::millis(1), 0);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  link.fail();
  link.port(0).send(make_frame(10));
  w.loop().run();
  EXPECT_TRUE(b.frames.empty());
  EXPECT_EQ(link.stats().frames_dropped, 1u);
  link.heal();
  link.port(0).send(make_frame(10));
  w.loop().run();
  EXPECT_EQ(b.frames.size(), 1u);
}

TEST(LinkTest, FailureKillsInFlightFrames) {
  sim::World w;
  Link link(w, sim::Duration::millis(5), 0);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  link.port(0).send(make_frame(10));
  w.loop().schedule_after(sim::Duration::millis(1), [&] { link.fail(); });
  w.loop().run();
  EXPECT_TRUE(b.frames.empty());
}

TEST(LinkTest, DropNextDropsExactlyN) {
  sim::World w;
  Link link(w, sim::Duration::zero(), 0);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  link.drop_next(2);
  for (int i = 0; i < 5; ++i) link.port(0).send(make_frame(10));
  w.loop().run();
  EXPECT_EQ(b.frames.size(), 3u);
  EXPECT_EQ(link.stats().frames_dropped, 2u);
}

TEST(LinkTest, RandomLossRoughlyMatchesProbability) {
  sim::World w(1234);
  Link link(w, sim::Duration::zero(), 0, 0.2);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  const int n = 10000;
  for (int i = 0; i < n; ++i) link.port(0).send(make_frame(10));
  w.loop().run();
  const double loss =
      static_cast<double>(link.stats().frames_dropped) / n;
  EXPECT_NEAR(loss, 0.2, 0.02);
}

TEST(LinkTest, StatsCountBytes) {
  sim::World w;
  Link link(w, sim::Duration::zero(), 0);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  link.port(0).send(make_frame(100));
  link.port(0).send(make_frame(50));
  w.loop().run();
  EXPECT_EQ(link.stats().frames_sent, 2u);
  EXPECT_EQ(link.stats().frames_delivered, 2u);
  EXPECT_EQ(link.stats().bytes_delivered, 150u);
}

// Frames wait in reused slots while in flight. Under duplication and
// reordering many are in flight at once and slots are freed out of order;
// every delivered frame must still be exactly one that was sent.
TEST(LinkTest, SlotsDeliverEveryFrameByteExactUnderDuplicateAndReorder) {
  sim::World w(77);
  Link link(w, sim::Duration::micros(200), 100'000'000);
  link.impairment().config().duplicate_probability = 0.2;
  link.impairment().config().reorder_probability = 0.2;
  link.impairment().config().reorder_delay = sim::Duration::millis(1);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  // Frame i is (i % 1400) + 60 bytes long; each byte encodes i and its index.
  const auto frame_bytes = [](std::uint32_t i) {
    Bytes f(i % 1400 + 60);
    for (std::size_t k = 0; k < f.size(); ++k) {
      f[k] = static_cast<std::uint8_t>(i * 7 + k);
    }
    f[0] = static_cast<std::uint8_t>(i >> 8);
    f[1] = static_cast<std::uint8_t>(i);
    return f;
  };
  constexpr std::uint32_t kFrames = 1000;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    w.loop().schedule_at(sim::SimTime::from_ns(i * 3000),
                         [&link, &frame_bytes, i] { link.port(0).send(frame_bytes(i)); });
  }
  w.loop().run();

  std::vector<int> seen(kFrames, 0);
  bool overtaken = false;
  std::uint32_t last = 0;
  for (const Frame& f : b.frames) {
    ASSERT_GE(f.size(), 2u);
    const std::uint32_t i = (std::uint32_t{f[0]} << 8) | f[1];
    ASSERT_LT(i, kFrames);
    ASSERT_EQ(f.clone(), frame_bytes(i)) << "frame " << i;
    if (i < last) overtaken = true;
    last = std::max(last, i);
    ++seen[i];
  }
  const Impairment::Stats& st = link.impairment().stats();
  EXPECT_GT(st.duplicated, 0u);
  EXPECT_TRUE(overtaken) << "reordered frames never overtook";
  for (std::uint32_t i = 0; i < kFrames; ++i) EXPECT_GE(seen[i], 1) << "frame " << i;
  EXPECT_EQ(b.frames.size(), kFrames + st.duplicated);
  EXPECT_EQ(link.stats().frames_delivered, kFrames + st.duplicated);
  EXPECT_EQ(link.stats().frames_dropped, 0u);
}

TEST(LinkTest, FailureMidFlightDropsAndCountsEveryInFlightFrame) {
  sim::World w;
  // 1 Mbps, 5 ms: a 125-byte frame occupies the wire for 1 ms.
  Link link(w, sim::Duration::millis(5), 1'000'000);
  CollectSink b(w);
  link.port(1).set_sink(&b);
  for (int i = 0; i < 20; ++i) link.port(0).send(make_frame(125));
  // Frame k arrives at k + 6 ms: by 10.5 ms frames 0..4 are delivered and
  // the other 15 are still on the wire.
  w.loop().schedule_at(sim::SimTime::zero() + sim::Duration::millis(10) +
                           sim::Duration::micros(500),
                       [&] { link.fail(); });
  w.loop().run();
  EXPECT_EQ(b.frames.size(), 5u);
  EXPECT_EQ(link.stats().frames_sent, 20u);
  EXPECT_EQ(link.stats().frames_delivered, 5u);
  EXPECT_EQ(link.stats().frames_dropped, 15u);

  // The healed link reuses the freed slots.
  link.heal();
  link.port(0).send(make_frame(10));
  w.loop().run();
  EXPECT_EQ(b.frames.size(), 6u);
}

}  // namespace
}  // namespace sttcp::net
