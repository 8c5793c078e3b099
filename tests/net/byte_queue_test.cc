#include "net/byte_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>

#include "sim/random.h"

namespace sttcp::net {
namespace {

TEST(ByteQueueTest, AppendConsumeView) {
  ByteQueue q;
  EXPECT_TRUE(q.empty());
  q.append(to_bytes("hello world"));
  EXPECT_EQ(q.size(), 11u);
  q.consume(6);
  EXPECT_EQ(to_bytes(q.view(0, 100)), to_bytes("world"));
  EXPECT_EQ(to_bytes(q.view(1, 3)), to_bytes("orl"));
  EXPECT_TRUE(q.view(5, 3).empty());
  q.consume(100);  // clipped to what is held
  EXPECT_TRUE(q.empty());
}

TEST(ByteQueueTest, EmptyingFreesStorage) {
  ByteQueue q;
  q.append(Bytes(4096, 7));
  EXPECT_GE(q.capacity(), 4096u);
  q.consume(4000);
  EXPECT_GT(q.capacity(), 0u);
  q.consume(96);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 0u);

  q.append(Bytes(10, 1));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 0u);
}

TEST(ByteQueueTest, CompactionKeepsTheLiveBytes) {
  ByteQueue q;
  Bytes data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  q.append(data);
  q.consume(600);  // past half: the 400 live bytes move to the front
  EXPECT_EQ(q.size(), 400u);
  EXPECT_EQ(to_bytes(q.view(0, 400)), Bytes(data.begin() + 600, data.end()));
  q.append(data);
  EXPECT_EQ(q.view(399, 2)[0], data[999]);
  EXPECT_EQ(q.view(399, 2)[1], data[0]);
}

// Randomized differential test against std::deque<uint8_t>: 10k mixed
// appends, consumes and views, sized so the queue repeatedly compacts and
// empties. Every view must match the deque byte for byte, and every
// emptying must free the storage.
TEST(ByteQueueTest, MatchesDequeUnderRandomOperations) {
  sim::Rng rng(20261019);
  const auto pick = [&rng](std::size_t hi) {  // uniform over [0, hi]
    return static_cast<std::size_t>(rng.below(hi + 1));
  };
  ByteQueue q;
  std::deque<std::uint8_t> ref;
  std::uint8_t next = 0;
  std::size_t emptied = 0;
  std::size_t compacted = 0;
  for (int op = 0; op < 10'000; ++op) {
    const std::size_t kind = pick(2);
    if (kind == 0) {
      Bytes chunk(pick(3000));
      for (auto& b : chunk) b = next++;
      q.append(chunk);
      ref.insert(ref.end(), chunk.begin(), chunk.end());
    } else if (kind == 1) {
      // Consume at most the whole queue, sometimes exactly all of it.
      const std::size_t n = rng.chance(0.2) ? ref.size() : pick(ref.size());
      // Where the new front byte sits now; a compaction moves it.
      const std::uint8_t* new_front = q.view(n, 1).data();
      q.consume(n);
      ref.erase(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(n));
      if (ref.empty()) {
        ++emptied;
        ASSERT_EQ(q.capacity(), 0u) << "op " << op;
      } else if (q.view(0, 1).data() != new_front) {
        ++compacted;
      }
    } else {
      const std::size_t at = ref.empty() ? 0 : pick(ref.size());
      const std::size_t n = pick(4000);
      const BytesView v = q.view(at, n);
      const std::size_t expect = std::min(n, ref.size() - at);
      ASSERT_EQ(v.size(), expect) << "op " << op;
      for (std::size_t i = 0; i < v.size(); ++i) {
        ASSERT_EQ(v[i], ref[at + i]) << "op " << op << " byte " << i;
      }
    }
    ASSERT_EQ(q.size(), ref.size()) << "op " << op;
    ASSERT_EQ(q.empty(), ref.empty()) << "op " << op;
  }
  EXPECT_GT(emptied, 100u);
  EXPECT_GT(compacted, 100u);
}

}  // namespace
}  // namespace sttcp::net
