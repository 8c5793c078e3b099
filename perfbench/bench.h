// Shared types of the ST-TCP benchmark (see README.md in this directory).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "refclock.h"

namespace sttcp::perfbench {

struct Spec {
  std::uint64_t seed = 1;
  /// Smoke-test scale: a few hundred simulated milliseconds, small
  /// populations. Never used for measurements.
  bool tiny = false;
  /// Executor threads (only the sharded workload has more than one shard).
  int threads = 1;
};

/// Everything a run computes in simulated time. Runs of one seed must agree
/// on every field whether traced or not and at any thread count.
struct SimResult {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Workload digest(s) folded with every link's and switch's counters.
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t samples = 0;  // latency samples
  double p50_us = 0, p99_us = 0, p999_us = 0;
  double sim_s = 0;  // simulated seconds from start to drained
  double sim_ops_per_s = 0;
  bool operator==(const SimResult&) const = default;
};

/// The q-quantile (0 <= q <= 1) of `v`, interpolated linearly between order
/// statistics; quantile(v, 0.5) is the median. 0 for an empty vector.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (v[i + 1] - v[i]) * (pos - static_cast<double>(i));
}

/// Per-layer metric name -> value (traced runs only).
using Layers = std::map<std::string, double>;

struct RunResult {
  SimResult sim;
  double run_s = 0;  // host seconds of generation plus drain
  /// Mean RefClock tick over the run's ticks (host seconds).
  double ref_tick_s = 0;
  std::vector<std::string> failures;
  Layers layers;
  /// Host-time split of a traced run, for the human-readable report.
  std::vector<std::pair<std::string, double>> split;
};

/// One set-up workload run. Construction is the set-up; run() is the timed
/// simulation, with `clock` ticked between slices (tick time is not run
/// time); finish() runs the quiet period, the correctness checks and
/// collects results, untimed.
class WorkloadRun {
 public:
  WorkloadRun() = default;
  virtual ~WorkloadRun() = default;
  WorkloadRun(const WorkloadRun&) = delete;
  WorkloadRun& operator=(const WorkloadRun&) = delete;
  virtual void run(RefClock& clock) = 0;
  virtual RunResult finish() = 0;
};

std::unique_ptr<WorkloadRun> make_run(const std::string& workload,
                                      const Spec& spec, bool traced);
const std::vector<std::string>& workload_names();

}  // namespace sttcp::perfbench
