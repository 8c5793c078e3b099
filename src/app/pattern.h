// Deterministic payload generator shared by servers, clients, tests and
// benches: byte i of the stream is a pure function of i, so any receiver can
// verify integrity at any offset — including across an ST-TCP failover,
// where the bytes before the crash came from the primary and the bytes
// after it from the backup.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "net/bytes.h"

namespace sttcp::app {

inline std::uint8_t pattern_byte(std::uint64_t offset) {
  return static_cast<std::uint8_t>((offset * 131) ^ (offset >> 8));
}

/// pattern_byte(i) reads only bits 0..15 of i (the product's low byte comes
/// from i's low byte, the shift contributes bits 8..15), so the stream
/// repeats every 64 KiB. Generation and verification copy and compare
/// against one period instead of computing byte by byte.
inline constexpr std::size_t kPatternPeriod = 65536;

inline const std::uint8_t* pattern_period() {
  static const std::array<std::uint8_t, kPatternPeriod> table = [] {
    std::array<std::uint8_t, kPatternPeriod> t{};
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = pattern_byte(i);
    return t;
  }();
  return table.data();
}

inline net::Bytes pattern_bytes(std::uint64_t offset, std::size_t n) {
  net::Bytes b(n);
  const std::uint8_t* table = pattern_period();
  for (std::size_t done = 0; done < n;) {
    const std::size_t at = (offset + done) % kPatternPeriod;
    const std::size_t len = std::min(n - done, kPatternPeriod - at);
    std::memcpy(b.data() + done, table + at, len);
    done += len;
  }
  return b;
}

/// Verifies a chunk against the pattern; returns false on any mismatch.
inline bool pattern_verify(std::uint64_t offset, net::BytesView data) {
  const std::uint8_t* table = pattern_period();
  for (std::size_t done = 0; done < data.size();) {
    const std::size_t at = (offset + done) % kPatternPeriod;
    const std::size_t len = std::min(data.size() - done, kPatternPeriod - at);
    if (std::memcmp(data.data() + done, table + at, len) != 0) return false;
    done += len;
  }
  return true;
}

}  // namespace sttcp::app
