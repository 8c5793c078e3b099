// Host-speed reference for the benchmark's host-time metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace sttcp::perfbench {

/// The benchmark host's speed drifts with other load on the machine: one
/// seed's rep time moved by up to 1.5x within two minutes on the reference
/// host. RefClock times a fixed kernel that uses no ST-TCP code, made of what
/// the simulator's hot paths do (binary-heap pop and push on a 40k-entry
/// heap, random read-modify-writes in a 32 MiB table, short allocations and
/// copies). Ticks interleaved with a run measure the host's speed at the
/// time, and host seconds times kNominalTick / tick are host seconds at the
/// reference host's speed.
class RefClock {
 public:
  /// The kernel's median tick on the reference host (a 4-core x86-64 VM).
  static constexpr double kNominalTick = 0.006;
  /// Host seconds between ticks inside a run.
  static constexpr double kPeriod = 0.04;

  RefClock();
  ~RefClock();
  RefClock(const RefClock&) = delete;
  RefClock& operator=(const RefClock&) = delete;

  /// Runs the kernel once on each of `threads` threads at the same time, as
  /// a run on that many executor threads uses the host, and returns the
  /// mean of their host seconds.
  double tick(int threads = 1);

 private:
  struct Kernel;
  std::vector<std::unique_ptr<Kernel>> kernels_;
};

}  // namespace sttcp::perfbench
