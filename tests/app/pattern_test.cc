#include "app/pattern.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace sttcp::app {
namespace {

// The table-driven generator must equal the closed form byte for byte,
// including chunks that straddle a 64 KiB period and offsets above 2^32
// (where offset * 131 wraps differently than its low 16 bits suggest).
TEST(PatternTest, TableMatchesPatternByteAcrossPeriodsAndLargeOffsets) {
  const std::vector<std::uint64_t> starts = {
      0, 1, 65535 - 100, 65536, 3 * 65536 - 7, (1ULL << 32) - 300,
      (1ULL << 32) + 12345, (1ULL << 40) + 65500, ~0ULL - 70000};
  for (const std::uint64_t start : starts) {
    const net::Bytes got = pattern_bytes(start, 70000);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], pattern_byte(start + i)) << "offset " << start + i;
    }
    EXPECT_TRUE(pattern_verify(start, got)) << "start " << start;
  }
  EXPECT_TRUE(pattern_bytes(12, 0).empty());
  EXPECT_TRUE(pattern_verify(12, net::BytesView()));
}

TEST(PatternTest, VerifyRejectsASingleFlippedByteAnywhere) {
  constexpr std::size_t kChunk = 200 * 1024;
  const std::uint64_t start = (1ULL << 32) + 65000;
  net::Bytes chunk = pattern_bytes(start, kChunk);
  ASSERT_TRUE(pattern_verify(start, chunk));
  for (std::size_t at = 0; at < kChunk; at += 997) {
    chunk[at] ^= 0x01;
    EXPECT_FALSE(pattern_verify(start, chunk)) << "flip at " << at;
    chunk[at] ^= 0x01;
  }
  // The edges and both sides of every period boundary in the chunk.
  for (const std::size_t at : {std::size_t{0}, kChunk - 1, std::size_t{535},
                               std::size_t{536}, std::size_t{536 + 65535},
                               std::size_t{536 + 65536}}) {
    chunk[at] ^= 0x80;
    EXPECT_FALSE(pattern_verify(start, chunk)) << "flip at " << at;
    chunk[at] ^= 0x80;
  }
  // Right bytes at the wrong offset are a mismatch too.
  EXPECT_FALSE(pattern_verify(start + 1, chunk));
}

}  // namespace
}  // namespace sttcp::app
