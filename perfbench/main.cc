// ST-TCP benchmark: one workload, one seed, repeated for --seconds.
//
//   perfbench --workload churn|blockstore|sharded --seed N --seconds S
//             --trace 0|1 [--tiny]
//
// A run repeats the same seeded simulation until S host seconds have passed.
// Simulated metrics come from one rep and must be bit-identical in every
// rep; host metrics are medians over reps of host time at the reference
// host's speed (refclock.h). --trace 0 prints the end-to-end
// metrics, --trace 1 the per-layer metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Any failed check
// prints its reason and exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace sttcp::perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
      have_seconds = true;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument("need --workload --seed --seconds --trace");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    throw std::invalid_argument("unknown workload " + a.workload);
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Set-ups timed per rep, constructed and destroyed without running, in
/// batches. Set-up is sub-millisecond, so a single timing mostly measures
/// host interference; a batch keeps its fastest set-up, and setup_s is the
/// median of the batch values over the run, at reference speed: scaled by
/// the median of the RefClock ticks taken before each batch.
constexpr int kSetupBatches = 4;
constexpr int kSetupsPerBatch = 8;

struct Rep {
  RunResult result;
  int threads = 1;
  bool traced = false;
};

class Bench {
 public:
  explicit Bench(const Args& a) : args_(a) {}

  Spec spec_for(int threads) const {
    Spec spec;
    spec.seed = args_.seed;
    spec.tiny = args_.tiny;
    spec.threads = threads;
    return spec;
  }

  /// One full rep: set-up (timed), run (timed), finish (untimed).
  Rep rep(int threads, bool traced) {
    const Spec spec = spec_for(threads);
    for (int b = 0; b < kSetupBatches; ++b) {
      setup_ticks_.push_back(clock_.tick());
      double fastest = 0;
      for (int i = 0; i < kSetupsPerBatch; ++i) {
        const double t0 = now_s();
        auto run = make_run(args_.workload, spec, false);
        const double dt = now_s() - t0;
        fastest = i == 0 ? dt : std::min(fastest, dt);
      }
      setups_.push_back(fastest);
    }
    auto run = make_run(args_.workload, spec, traced);
    run->run(clock_);
    Rep r;
    r.result = run->finish();
    r.threads = threads;
    r.traced = traced;
    if (!reps_.empty() && !(r.result.sim == reps_.front().result.sim)) {
      failures_.push_back("simulated results differ between reps (threads " +
                          std::to_string(reps_.front().threads) + "/" +
                          std::to_string(threads) + ", traced " +
                          std::to_string(reps_.front().traced) + "/" +
                          std::to_string(traced) + ")");
    }
    for (const auto& f : r.result.failures) failures_.push_back(f);
    reps_.push_back(r);
    return r;
  }

  int main() {
    const double start = now_s();
    const bool sharded = args_.workload == "sharded";
    const int threads = sharded ? 2 : 1;
    // A cycle is the set of reps that make one measurement. Traced cycles
    // pair each traced rep with an untraced one on the same thread count;
    // the sharded traced cycle adds the two-thread rep whose digests must
    // match the one-thread reps.
    std::vector<std::pair<int, bool>> cycle;
    if (!args_.trace) {
      cycle = {{threads, false}};
    } else if (sharded) {
      cycle = {{1, false}, {2, false}, {1, true}};
    } else {
      cycle = {{1, false}, {1, true}};
    }
    // One untimed warm-up rep: the first run in a process pays page faults
    // and allocator growth that later reps do not.
    make_run(args_.workload, spec_for(threads), false)->run(clock_);
    const int min_cycles = args_.trace ? 1 : 3;
    int cycles = 0;
    double last_cycle = 0;
    while (cycles < min_cycles || now_s() - start + last_cycle <= args_.seconds) {
      const double c0 = now_s();
      auto& times = cycles_.emplace_back();
      for (const auto& [t, traced] : cycle) times[{t, traced}] = ref_s(rep(t, traced).result);
      last_cycle = now_s() - c0;
      ++cycles;
      if (!failures_.empty()) break;
    }
    return report(threads);
  }

 private:
  /// A rep's host run time at the reference host's speed.
  static double ref_s(const RunResult& r) {
    return r.run_s * RefClock::kNominalTick / r.ref_tick_s;
  }

  /// Untraced or traced reps' run times on `threads`: at reference speed,
  /// or as measured when `raw`.
  std::vector<double> run_times(int threads, bool traced, bool raw = false) const {
    std::vector<double> v;
    for (const Rep& r : reps_) {
      if (r.threads == threads && r.traced == traced) {
        v.push_back(raw ? r.result.run_s : ref_s(r.result));
      }
    }
    return v;
  }

  /// Median over cycles of ref_s(a) / ref_s(b).
  double cycle_ratio(std::pair<int, bool> a, std::pair<int, bool> b) const {
    std::vector<double> ratios;
    for (const auto& c : cycles_) {
      const auto ia = c.find(a), ib = c.find(b);
      if (ia != c.end() && ib != c.end() && ib->second > 0) {
        ratios.push_back(ia->second / ib->second);
      }
    }
    return quantile(ratios, 0.5);
  }

  int report(int threads) {
    const SimResult& sim = reps_.front().result.sim;
    const bool ok = failures_.empty() && sim.failed == 0;
    const std::uint64_t failed = failures_.empty() ? sim.failed : sim.attempted;
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);

    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
    const auto put = [&metrics](const std::string& name, double v, const std::string& unit) {
      metrics.push_back({name, {v, unit}});
    };
    const double ops = static_cast<double>(sim.completed);
    std::vector<double> rates;
    for (double s : run_times(threads, false)) rates.push_back(ops / s);
    if (!args_.trace) {
      put("setup_s",
          quantile(setups_, 0.5) * RefClock::kNominalTick / quantile(setup_ticks_, 0.5), "s");
      put("ops_per_host_s", quantile(rates, 0.5), "ops/s");
      put("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
      put("latency_p50_us", sim.p50_us, "us");
      put("latency_p99_us", sim.p99_us, "us");
      put("latency_p999_us", sim.p999_us, "us");
      put("sim_ops_per_s", sim.sim_ops_per_s, "ops/s");
    } else {
      std::map<std::string, std::vector<double>> per_layer;
      for (const Rep& r : reps_) {
        for (const auto& [k, v] : r.result.layers) per_layer[k].push_back(v);
      }
      const std::map<std::string, std::string> units = layer_units();
      for (const auto& [k, unit] : units) {
        const auto it = per_layer.find(k);
        if (it == per_layer.end()) continue;
        put(k, quantile(it->second, 0.5), unit);
      }
      // Ratios pair reps of one cycle, which ran back to back on the same
      // host state; the median over cycles damps host-speed drift.
      put("harness.trace_overhead_ratio", cycle_ratio({1, true}, {1, false}), "ratio");
      put("sim.parallel_speedup",
          args_.workload == "sharded" ? cycle_ratio({1, false}, {2, false}) : 1.0, "ratio");
    }

    std::cout << "perfbench workload=" << args_.workload << " seed=" << args_.seed
              << " trace=" << (args_.trace ? 1 : 0) << " reps=" << reps_.size()
              << " threads=" << (args_.trace && threads == 2 ? "1,2" : std::to_string(args_.trace ? 1 : threads))
              << " host_cores=" << std::thread::hardware_concurrency()
              << " build=" << PERFBENCH_BUILD_TYPE << "\n";
    std::cout << "  ops attempted=" << sim.attempted << " completed=" << sim.completed
              << " failed=" << sim.failed << " latency_samples=" << sim.samples
              << " sim_s=" << sim.sim_s << " events=" << sim.events << "\n";
    std::cout << "  failed_ratio " << (sim.attempted ? static_cast<double>(failed) /
                                                           static_cast<double>(sim.attempted)
                                                     : 1.0)
              << " ratio\n";
    if (sim.samples < 10000) {
      std::cout << "  note: latency_p999_us has " << sim.samples
                << " samples, fewer than 10 beyond it\n";
    }
    const auto spread = [](const char* what, const std::vector<double>& v) {
      std::printf("  %s over %zu: min %.6g q1 %.6g median %.6g max %.6g\n", what, v.size(),
                  quantile(v, 0), quantile(v, 0.25), quantile(v, 0.5), quantile(v, 1));
    };
    spread("host run_s (measured)", run_times(threads, false, true));
    spread("host run_s (reference speed)", run_times(threads, false));
    spread("host setup_s (measured)", setups_);
    spread("RefClock tick_s before set-ups", setup_ticks_);
    for (const auto& [k, vu] : metrics) {
      std::cout << "  " << k << " " << vu.first << " " << vu.second << "\n";
    }
    if (args_.trace) {
      for (const Rep& r : reps_) {
        if (!r.traced) continue;
        std::cout << "  host-time split of a traced run:\n";
        for (const auto& [name, share] : r.result.split) {
          std::printf("    %-30s %6.2f%%\n", name.c_str(), 100 * share);
        }
        break;
      }
    }
    for (const auto& f : failures_) std::cout << "FAILED: " << f << "\n";

    std::ostringstream js;
    js.precision(17);
    js << "{\"correct\": " << (ok ? "true" : "false") << ", \"attempted\": " << sim.attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      js << (i ? ", " : "") << "\"" << metrics[i].first << "\": {\"value\": "
         << metrics[i].second.first << ", \"unit\": \"" << metrics[i].second.second << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return ok ? 0 : 1;
  }

  /// Per-layer metrics and their units, as BENCHMARK.json lists them
  /// (trace_overhead_ratio and parallel_speedup come from paired reps).
  static std::map<std::string, std::string> layer_units() {
    return {
        {"sim.events_per_op", "events/op"},
        {"sim.self_ns_per_event", "ns"},
        {"sim.pending_peak", "count"},
        {"net.frames_per_op", "frames/op"},
        {"net.bytes_per_op", "bytes/op"},
        {"net.switch_ns_per_frame", "ns"},
        {"tcp.rx_ns_per_segment.client", "ns"},
        {"tcp.rx_ns_per_segment.primary", "ns"},
        {"tcp.rx_ns_per_segment.backup", "ns"},
        {"tcp.segments_per_op", "segments/op"},
        {"tcp.demux_hit_ratio.primary", "ratio"},
        {"sttcp.hb_rx_ns_per_beat.primary", "ns"},
        {"sttcp.hb_rx_ns_per_beat.backup", "ns"},
        {"sttcp.hb_beats_per_op", "beats/op"},
        {"sttcp.hb_bytes_per_op", "bytes/op"},
        {"sttcp.commit_wait_us.p50", "us"},
        {"sttcp.commit_wait_us.p99", "us"},
        {"sttcp.takeover_ms", "ms"},
        {"app.exec_us.p50", "us"},
        {"app.release_us.p50", "us"},
        {"app.cache_hit_ratio", "ratio"},
        {"app.decisions_per_op", "decisions/op"},
        {"harness.check_ns_per_frame", "ns"},
        {"failover_stall_ms", "ms"},
    };
  }

  Args args_;
  std::vector<Rep> reps_;
  /// Per cycle: ref_s by (threads, traced).
  std::vector<std::map<std::pair<int, bool>, double>> cycles_;
  RefClock clock_;
  std::vector<double> setups_;  // batch values as measured
  std::vector<double> setup_ticks_;
  std::vector<std::string> failures_;
};

}  // namespace
}  // namespace sttcp::perfbench

int main(int argc, char** argv) {
  sttcp::perfbench::Args args;
  try {
    args = sttcp::perfbench::parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    return sttcp::perfbench::Bench(args).main();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
