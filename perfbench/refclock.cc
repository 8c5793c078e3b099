#include "refclock.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <utility>

namespace sttcp::perfbench {
namespace {

constexpr int kHeapEntries = 40000;
constexpr std::size_t kTableEntries = std::size_t{1} << 22;  // 32 MiB
constexpr int kStepsPerTick = 15000;

struct XorShift {
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t operator()() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

}  // namespace

/// One thread's kernel state.
struct RefClock::Kernel {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;
  std::vector<std::uint64_t> table = std::vector<std::uint64_t>(kTableEntries);
  std::vector<std::uint8_t> frame = std::vector<std::uint8_t>(1500, 0x5a);
  std::uint64_t sink = 0;

  Kernel() {
    XorShift rnd;
    for (int i = 0; i < kHeapEntries; ++i) {
      heap.emplace_back(rnd() >> 8, static_cast<std::uint32_t>(i));
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
  }

  double run() {
    XorShift rnd;  // the same steps every tick
    std::uint64_t acc = sink;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kStepsPerTick; ++i) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      auto& e = heap.back();
      e.first += rnd() & 0xffffff;
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
      std::uint64_t& slot = table[rnd() & (kTableEntries - 1)];
      slot += e.first;
      acc += slot;
      std::vector<std::uint8_t> f(64 + (e.second & 1023));
      std::memcpy(f.data(), frame.data(), f.size());
      for (std::size_t k = 0; k < f.size(); k += 64) acc += f[k];
    }
    const auto t1 = std::chrono::steady_clock::now();
    sink = acc;
    return std::chrono::duration<double>(t1 - t0).count();
  }
};

RefClock::RefClock() { kernels_.push_back(std::make_unique<Kernel>()); }
RefClock::~RefClock() = default;

double RefClock::tick(int threads) {
  while (kernels_.size() < static_cast<std::size_t>(threads)) {
    kernels_.push_back(std::make_unique<Kernel>());
  }
  std::vector<double> secs(static_cast<std::size_t>(threads));
  std::vector<std::thread> others;
  for (std::size_t k = 1; k < secs.size(); ++k) {
    others.emplace_back([this, &secs, k] { secs[k] = kernels_[k]->run(); });
  }
  secs[0] = kernels_[0]->run();
  for (std::thread& t : others) t.join();
  double sum = 0;
  for (double s : secs) sum += s;
  return sum / static_cast<double>(threads);
}

}  // namespace sttcp::perfbench
