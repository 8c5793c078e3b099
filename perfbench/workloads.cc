// The three workloads. Each builds its world with TopologyBuilder, runs it
// in fixed simulated slices (so traced and untraced runs slice alike), and
// checks its outputs with the repository's own oracles.
#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "app/block_server.h"
#include "app/server.h"
#include "bench.h"
#include "harness/block_workload.h"
#include "harness/invariants.h"
#include "harness/topology.h"
#include "harness/workload.h"
#include "probe.h"

namespace sttcp::perfbench {
namespace {

using harness::CellConfig;
using harness::HostOptions;
using harness::InvariantChecker;
using harness::Topology;
using harness::TopologyBuilder;
using harness::TopologyConfig;

/// Host-time slice boundaries are simulated: pending() is sampled between
/// slices, never by a scheduled probe event.
constexpr sim::Duration kSlice = sim::Duration::millis(50);
/// Upper bound on drain after generation ends.
constexpr sim::Duration kMaxDrain = sim::Duration::seconds(60);
/// Post-drain quiet margin: 2 x MSL TIME_WAIT plus closed-record linger,
/// so the bounded-memory invariant sees empty tables.
constexpr sim::Duration kQuiet = sim::Duration::seconds(3);

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Percentile of a log-bucketed histogram, interpolated linearly inside the
/// containing bucket (Histogram::percentile returns the bucket's lower
/// bound, which would read identically across seeds).
double interpolated(const obs::Histogram& h, double q) {
  if (h.count() == 0) return 0;
  const double rank = q * static_cast<double>(h.count());
  double below = 0;
  const auto& b = h.buckets();
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b[i] == 0) continue;
    const double n = static_cast<double>(b[i]);
    if (below + n >= rank) {
      const auto lo = static_cast<double>(obs::Histogram::bucket_lower_bound(static_cast<int>(i)));
      const auto hi = static_cast<double>(obs::Histogram::bucket_lower_bound(static_cast<int>(i) + 1));
      const double v = lo + (hi - lo) * (rank - below) / n;
      return std::min(v, static_cast<double>(h.max()));
    }
    below += n;
  }
  return static_cast<double>(h.max());
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

/// The churn topology settings bench_capacity uses for thousands of
/// connections, on gigabit links.
TopologyConfig fabric_config(std::uint64_t seed) {
  TopologyConfig tc;
  tc.seed = seed;
  tc.link_bandwidth_bps = 1'000'000'000;
  tc.sttcp.hold_buffer_capacity = 32 * 1024 * 1024;
  tc.sttcp.serial_max_records = 32;
  return tc;
}

/// One LAN: `clients` stack-bearing client hosts (10.0.0.1, then 10.0.0.11
/// onwards, clear of the cell's addresses; the InvariantChecker watches the
/// first), the pair and a gateway.
std::unique_ptr<Topology> build_flat(TopologyConfig tc, int clients) {
  TopologyBuilder b(std::move(tc));
  const int lan = b.add_switch("switch");
  HostOptions client;
  client.with_stack = true;
  for (int i = 0; i < clients; ++i) {
    b.add_host(i == 0 ? std::string("client") : "client" + std::to_string(i),
               {10, 0, 0, static_cast<std::uint8_t>(i == 0 ? 1 : 10 + i)}, lan, client);
  }
  b.add_cell(lan, {});
  b.add_host("gateway", {10, 0, 0, 254}, lan);
  return b.build();
}

harness::WorkloadConfig flow_config(std::size_t clients, sim::Duration gen) {
  harness::WorkloadConfig wc;
  wc.arrivals = harness::WorkloadConfig::Arrivals::kClosedLoop;
  wc.closed_clients = clients;
  wc.max_concurrent = clients;
  wc.think_mean = sim::Duration::millis(20);
  wc.flow_min_bytes = 4 * 1024;
  wc.flow_max_bytes = 64 * 1024;
  wc.duration = gen;
  return wc;
}

/// Common run loop: generation then drain in kSlice steps, host-timed.
class FabricRun : public WorkloadRun {
 public:
  void run(RefClock& clock) override {
    const sim::SimTime start = topo_->world().now();
    const std::uint64_t events0 = events();
    const int threads = static_cast<int>(topo_->threads());
    double ticks = clock.tick(threads);
    int n_ticks = 1;
    double ticking = 0;  // host seconds spent in ticks inside the timed span
    const auto t0 = std::chrono::steady_clock::now();
    auto last_tick = t0;
    const sim::SimTime gen_end = start + gen_;
    const sim::SimTime limit = gen_end + kMaxDrain;
    const sim::SimTime rate_end = start + rate_window_;
    while (topo_->world().now() < gen_end || (!drained() && topo_->world().now() < limit)) {
      topo_->run_for(kSlice);
      pending_peak_ = std::max(pending_peak_, pending());
      if (rate_ops_ < 0 && topo_->world().now() >= rate_end) {
        rate_ops_ = static_cast<double>(completed());
      }
      if (seconds_since(last_tick) >= RefClock::kPeriod) {
        const auto k0 = std::chrono::steady_clock::now();
        ticks += clock.tick(threads);
        ++n_ticks;
        last_tick = std::chrono::steady_clock::now();
        ticking += std::chrono::duration<double>(last_tick - k0).count();
      }
    }
    run_s_ = seconds_since(t0) - ticking;
    ref_tick_s_ = ticks / n_ticks;
    sim_s_ = (topo_->world().now() - start).to_seconds();
    run_events_ = events() - events0;
    // Per-layer figures cover the timed run only, not the quiet period.
    if (probe_) {
      traced_end(result_);
      probe_.reset();
    }
  }

 protected:
  virtual bool drained() const = 0;
  virtual std::uint64_t completed() const = 0;
  /// Collects the traced run's per-layer metrics while the Probe is live.
  virtual void traced_end(RunResult& r) = 0;

  std::uint64_t events() const {
    std::uint64_t n = 0;
    for (std::size_t k = 0; k < topo_->shard_count(); ++k) {
      n += topo_->world(k).loop().events_executed();
    }
    return n;
  }
  std::size_t pending() const {
    std::size_t n = 0;
    for (std::size_t k = 0; k < topo_->shard_count(); ++k) {
      n += topo_->world(k).loop().pending();
    }
    return n;
  }
  /// Every link's and switch's counters: a cheap whole-fabric identity that
  /// needs no frame tap.
  std::uint64_t fabric_digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < topo_->link_count(); ++i) {
      const auto& s = topo_->link(i).stats();
      h = fold(fold(fold(fold(h, s.frames_sent), s.frames_delivered), s.frames_dropped),
               s.bytes_delivered);
    }
    for (std::size_t i = 0; i < topo_->switch_count(); ++i) {
      const auto& s = topo_->ethernet_switch(i).stats();
      h = fold(fold(fold(h, s.forwarded), s.flooded), s.multicast);
    }
    return h;
  }
  /// The sharded executor's threads must not run while the Probe is
  /// installed (it keeps unsynchronized counters).
  void start_probe(Probe::Options opt) {
    if (topo_->threads() != 1) throw std::logic_error("traced runs use one thread");
    probe_ = std::make_unique<Probe>(*topo_, opt);
  }
  void quiet() { topo_->run_for(kQuiet); }

  /// Per-layer metrics every workload reports from the Probe; `ops` is the
  /// workload's completed-op count.
  void probe_layers(RunResult& r, double ops) const {
    Layers& L = r.layers;
    const Probe& p = *probe_;
    const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const auto ns_per = [&](Site s) {
      return per(static_cast<double>(p.bucket(s).self_ns),
                 static_cast<double>(p.bucket(s).count));
    };
    const double run_ns = run_s_ * 1e9;
    const double ev = static_cast<double>(run_events_);
    const double sink_ns = static_cast<double>(p.sink_ns() + p.probe_outer_ns());
    L["sim.events_per_op"] = per(ev, ops);
    L["sim.self_ns_per_event"] = per(run_ns - sink_ns, ev);
    L["sim.pending_peak"] = static_cast<double>(pending_peak_);
    L["net.frames_per_op"] = per(static_cast<double>(p.switch_frames()), ops);
    L["net.bytes_per_op"] = per(static_cast<double>(p.switch_bytes()), ops);
    L["net.switch_ns_per_frame"] = ns_per(Site::kSwitch);
    L["tcp.rx_ns_per_segment.client"] = ns_per(Site::kClientTcp);
    L["tcp.rx_ns_per_segment.primary"] = ns_per(Site::kPrimaryTcp);
    L["tcp.rx_ns_per_segment.backup"] = ns_per(Site::kBackupTcp);
    L["tcp.segments_per_op"] =
        per(static_cast<double>(p.bucket(Site::kClientTcp).count +
                                p.bucket(Site::kPrimaryTcp).count +
                                p.bucket(Site::kBackupTcp).count),
            ops);
    L["sttcp.hb_rx_ns_per_beat.primary"] = ns_per(Site::kPrimaryHeartbeat);
    L["sttcp.hb_rx_ns_per_beat.backup"] = ns_per(Site::kBackupHeartbeat);
    L["sttcp.hb_beats_per_op"] = per(static_cast<double>(p.beats()), ops);
    L["sttcp.hb_bytes_per_op"] = per(static_cast<double>(p.beat_bytes()), ops);
    L["harness.check_ns_per_frame"] = ns_per(Site::kCheckerTap);
    const double stall = p.failover_stall_ms();
    L["failover_stall_ms"] = stall > 0 ? stall : 0;
    // Mechanisms a workload does not exercise read 0 (see README.md).
    for (const char* k : {"sttcp.commit_wait_us.p50", "sttcp.commit_wait_us.p99",
                          "sttcp.takeover_ms", "app.exec_us.p50", "app.release_us.p50",
                          "app.cache_hit_ratio", "app.decisions_per_op"}) {
      L.emplace(k, 0.0);
    }

    static const std::pair<Site, const char*> kNames[] = {
        {Site::kClientTcp, "tcp rx client"},
        {Site::kPrimaryTcp, "tcp rx primary"},
        {Site::kBackupTcp, "tcp rx backup"},
        {Site::kPrimaryHeartbeat, "heartbeat rx primary"},
        {Site::kBackupHeartbeat, "heartbeat rx backup"},
        {Site::kHostOther, "other host rx"},
        {Site::kGateway, "gateway rx"},
        {Site::kSwitch, "switch ingress"},
        {Site::kRouter, "router forwarding"},
        {Site::kTrunk, "trunk enqueue"},
        {Site::kCheckerTap, "invariant checker tap"},
    };
    double layered = 0;
    for (const auto& [site, name] : kNames) {
      const double ns = static_cast<double>(p.bucket(site).self_ns);
      layered += ns;
      r.split.emplace_back(name, per(ns, run_ns));
    }
    r.split.emplace_back("kernel, timers, link events", per(run_ns - sink_ns, run_ns));
    r.split.emplace_back("probe analysis", per(sink_ns - layered, run_ns));
  }

  std::unique_ptr<Topology> topo_;
  std::unique_ptr<Probe> probe_;
  RunResult result_;  // traced_end() output, completed by finish()
  sim::Duration gen_;
  /// sim_ops_per_s counts the ops completed in [start, start + rate_window_),
  /// a window in which every client is active (a multiple of kSlice).
  sim::Duration rate_window_;
  double rate_ops_ = -1;
  double run_s_ = 0;
  double ref_tick_s_ = 0;
  double sim_s_ = 0;
  std::uint64_t run_events_ = 0;
  std::size_t pending_peak_ = 0;
};

/// Primaries' demux-cache hits over segments demultiplexed.
double demux_ratio(const std::vector<harness::Cell*>& cells) {
  std::uint64_t hits = 0, demuxed = 0;
  for (harness::Cell* c : cells) {
    hits += c->primary_stack().stats().demux_cache_hits;
    demuxed += c->primary_stack().stats().segments_demuxed;
  }
  return demuxed ? static_cast<double>(hits) / static_cast<double>(demuxed) : 0.0;
}

/// Shared flow accounting for churn and sharded (op = flow).
void flow_result(const harness::Workload::Stats& s, SimResult& sim) {
  sim.attempted += s.offered;
  sim.completed += s.completed;
  sim.failed += s.offered - std::min(s.offered, s.completed);
}

void latency(const obs::Histogram& h, SimResult& sim) {
  sim.samples = h.count();
  sim.p50_us = interpolated(h, 0.50);
  sim.p99_us = interpolated(h, 0.99);
  sim.p999_us = interpolated(h, 0.999);
}

void violations(const std::vector<harness::Violation>& v, const std::string& where,
                RunResult& r) {
  for (const auto& x : v) r.failures.push_back(where + x.str());
}

// --- churn -------------------------------------------------------------------

/// The Figure-2 pair under 2,048 closed-loop clients with a primary crash
/// three quarters of the way through generation. The clients are spread over
/// kClientHosts hosts: one client stack has 16,384 ephemeral ports, and a
/// reused tuple whose server side is still in TIME_WAIT stalls on SYN
/// retransmission. finish() fails the run if any host came near reuse.
class ChurnRun final : public FabricRun {
 public:
  static constexpr int kClientHosts = 4;
  /// Flows per client host before its ephemeral ports could wrap.
  static constexpr std::uint64_t kPortsPerHost = 16384;

  ChurnRun(const Spec& spec, bool traced) {
    gen_ = spec.tiny ? sim::Duration::millis(400) : sim::Duration::millis(1600);
    rate_window_ = gen_;
    const std::size_t clients = spec.tiny ? 128 : 2048;
    topo_ = build_flat(fabric_config(spec.seed), kClientHosts);
    harness::Cell& cell = topo_->cell(0);
    p_app_ = std::make_unique<app::SizedServer>(cell.primary_stack(), cell.service_port());
    b_app_ = std::make_unique<app::SizedServer>(cell.backup_stack(), cell.service_port());
    InvariantChecker::Options iopt;
    iopt.expect_masked = true;
    checker_ = std::make_unique<InvariantChecker>(*topo_, iopt);
    crash_at_ = topo_->world().now() + gen_ * 3 / 4;
    if (traced) {
      Probe::Options po;
      po.hb_port = topo_->config().sttcp.hb_port;
      po.crash_at = crash_at_;
      po.service_ip = cell.service_ip();
      po.survivor_mac = cell.backup_mac(0);
      start_probe(po);
    }
    for (int h = 0; h < kClientHosts; ++h) {
      Topology::HostEntry& client = topo_->host(static_cast<std::size_t>(h));
      harness::WorkloadConfig wc = flow_config(clients / kClientHosts, gen_);
      // The pair's connection tables hold every host's flows: the
      // bounded-memory check's cap is the whole population.
      wc.max_concurrent = clients;
      loads_.push_back(std::make_unique<harness::Workload>(
          topo_->world(), *client.stack, client.ip, cell.connect_addr(), wc));
    }
    topo_->world().loop().schedule_at(crash_at_, [this] {
      topo_->world().trace().record("harness", "fault_injected", "crash:primary");
      topo_->cell(0).primary().crash("injected HW/OS crash");
    });
    for (auto& wl : loads_) wl->start();
  }

  RunResult finish() override {
    quiet();
    RunResult r = std::move(result_);
    r.run_s = run_s_;
    r.ref_tick_s = ref_tick_s_;
    obs::Histogram fct;
    std::uint64_t digest = fabric_digest();
    for (int h = 0; h < kClientHosts; ++h) {
      const harness::Workload& wl = *loads_[static_cast<std::size_t>(h)];
      const std::string where = "churn client host " + std::to_string(h) + ": ";
      flow_result(wl.stats(), r.sim);
      fct.merge(wl.fct_us());
      digest = fold(digest, wl.digest());
      if (!wl.drained()) r.failures.push_back(where + "flows still open after drain");
      if (wl.stats().started >= kPortsPerHost) {
        r.failures.push_back(where + std::to_string(wl.stats().started) +
                             " flows reach the ephemeral-port wall");
      }
      violations(checker_->check(wl), where, r);
    }
    latency(fct, r.sim);
    r.sim.events = run_events_;
    r.sim.sim_s = sim_s_;
    r.sim.sim_ops_per_s = std::max(rate_ops_, 0.0) / rate_window_.to_seconds();
    r.sim.digest = digest;
    if (!topo_->world().trace().first_time("takeover")) {
      r.failures.push_back("churn: the backup never took over");
    }
    return r;
  }

 private:
  bool drained() const override {
    return std::all_of(loads_.begin(), loads_.end(),
                       [](const auto& wl) { return wl->drained(); });
  }
  std::uint64_t completed() const override {
    std::uint64_t n = 0;
    for (const auto& wl : loads_) n += wl->stats().completed;
    return n;
  }
  void traced_end(RunResult& r) override {
    probe_layers(r, static_cast<double>(completed()));
    r.layers["tcp.demux_hit_ratio.primary"] = demux_ratio({&topo_->cell(0)});
    if (const auto t = topo_->world().trace().first_time("takeover")) {
      r.layers["sttcp.takeover_ms"] = (*t - crash_at_).to_millis();
    }
    if (probe_->failover_stall_ms() < 0) {
      r.failures.push_back("churn trace: the backup never sent payload after the crash");
    }
  }

  std::unique_ptr<app::SizedServer> p_app_, b_app_;
  std::unique_ptr<InvariantChecker> checker_;
  std::vector<std::unique_ptr<harness::Workload>> loads_;
  sim::SimTime crash_at_;
};

// --- blockstore --------------------------------------------------------------

/// The pair running BlockStoreServer in record/replay: 16 closed-loop
/// clients, each in one long session (client TIME_WAIT falls after it).
class BlockRun final : public FabricRun {
 public:
  BlockRun(const Spec& spec, bool traced) {
    TopologyConfig tc;
    tc.seed = spec.seed;
    topo_ = build_flat(tc, 1);
    harness::Cell& cell = topo_->cell(0);
    const app::BlockStoreConfig acfg;
    p_app_ = std::make_unique<app::BlockStoreServer>(cell.primary_stack(), cell.service_port(),
                                                     acfg, sttcp::DecisionLog::Mode::kRecord);
    b_app_ = std::make_unique<app::BlockStoreServer>(cell.backup_stack(), cell.service_port(),
                                                     acfg, sttcp::DecisionLog::Mode::kReplay);
    cell.primary_endpoint()->set_decision_log(&p_app_->decisions());
    cell.backup_endpoint()->set_decision_log(&b_app_->decisions());
    checker_ = std::make_unique<InvariantChecker>(*topo_, InvariantChecker::Options{});
    if (traced) {
      Probe::Options po;
      po.hb_port = topo_->config().sttcp.hb_port;
      po.track_requests = true;
      po.client_ip = topo_->host(0).ip;
      po.service = cell.connect_addr();
      start_probe(po);
    }
    harness::BlockWorkloadConfig wc;
    wc.clients = 16;
    wc.blocks_per_client = 4;  // 64 blocks: 4x the 16-page cache
    wc.ops_per_session = spec.tiny ? 200 : 3000;
    wc.put_prob = 0.35;
    wc.delete_prob = 0.05;
    wc.think_mean = sim::Duration::millis(10);
    // Every client opens its one session inside the generation window and
    // keeps it open through the rate window.
    gen_ = sim::Duration::millis(100);
    rate_window_ = spec.tiny ? sim::Duration::millis(150) : sim::Duration::seconds(2);
    wc.duration = gen_;
    wl_ = std::make_unique<harness::BlockWorkload>(topo_->world(), *topo_->host(0).stack,
                                                   topo_->host(0).ip, cell.connect_addr(), wc);
    wl_->start();
  }

  RunResult finish() override {
    quiet();
    // Quiesce: flush dirty pages through the log, let the backup replay.
    p_app_->flush_all_dirty();
    topo_->run_for(sim::Duration::seconds(1));
    RunResult r = std::move(result_);
    r.run_s = run_s_;
    r.ref_tick_s = ref_tick_s_;
    const auto& s = wl_->stats();
    r.sim.attempted = s.requests;
    r.sim.completed = s.responses;
    r.sim.failed = (s.requests - std::min(s.requests, s.responses)) + s.bad_status +
                   s.mismatches + s.protocol_errors;
    latency(wl_->request_us(), r.sim);
    r.sim.events = run_events_;
    r.sim.sim_s = sim_s_;
    r.sim.sim_ops_per_s = std::max(rate_ops_, 0.0) / rate_window_.to_seconds();
    r.sim.digest = fold(fold(wl_->digest(), fabric_digest()), p_app_->state_digest());
    if (!wl_->drained()) r.failures.push_back("blockstore: sessions still open after drain");
    violations(checker_->check(*wl_), "blockstore: ", r);
    if (p_app_->tx_digest() != b_app_->tx_digest() ||
        p_app_->store_digest() != b_app_->store_digest() ||
        p_app_->cache_digest() != b_app_->cache_digest() ||
        p_app_->state_digest() != b_app_->state_digest()) {
      r.failures.push_back("blockstore: primary and backup digests differ at quiesce");
    }
    if (b_app_->store_stats().replay_mismatch != 0) {
      r.failures.push_back("blockstore: backup replay mismatches");
    }
    return r;
  }

 private:
  bool drained() const override { return wl_->drained(); }
  std::uint64_t completed() const override { return wl_->stats().responses; }
  void traced_end(RunResult& r) override {
    const double ops = static_cast<double>(wl_->stats().responses);
    probe_layers(r, ops);
    spans(r);
    r.layers["tcp.demux_hit_ratio.primary"] = demux_ratio({&topo_->cell(0)});
    const auto& ss = p_app_->store_stats();
    const double lookups = static_cast<double>(ss.cache_hits + ss.cache_misses);
    r.layers["app.cache_hit_ratio"] =
        lookups > 0 ? static_cast<double>(ss.cache_hits) / lookups : 0.0;
    r.layers["app.decisions_per_op"] =
        ops > 0 ? static_cast<double>(p_app_->decisions().stats().appended) / ops : 0.0;
  }

  /// Per-request spans from the Probe. Their sums must reproduce the
  /// client's own latency record exactly (count and microsecond sum).
  void spans(RunResult& r) const {
    std::vector<double> exec, commit, release;
    std::uint64_t n = 0, sum_us = 0, incomplete = 0;
    for (const RequestSpans& q : probe_->requests()) {
      if (!q.complete()) {
        ++incomplete;
        continue;
      }
      ++n;
      sum_us += static_cast<std::uint64_t>((q.parsed - q.sent) / 1000);
      exec.push_back(static_cast<double>(q.decided - q.at_switch) / 1e3);
      commit.push_back(static_cast<double>(q.acked - q.decided) / 1e3);
      release.push_back(static_cast<double>(q.released - q.acked) / 1e3);
    }
    const obs::Histogram& h = wl_->request_us();
    if (incomplete != 0 || probe_->unmatched() != 0 || n != h.count() || sum_us != h.sum()) {
      r.failures.push_back(
          "blockstore trace: spans do not sum to the measured latency (" +
          std::to_string(n) + " requests, " + std::to_string(sum_us) + " us traced vs " +
          std::to_string(h.count()) + ", " + std::to_string(h.sum()) + " us measured; " +
          std::to_string(incomplete) + " incomplete, " +
          std::to_string(probe_->unmatched()) + " unmatched frames)");
    }
    r.layers["sttcp.commit_wait_us.p50"] = quantile(commit, 0.50);
    r.layers["sttcp.commit_wait_us.p99"] = quantile(commit, 0.99);
    r.layers["app.exec_us.p50"] = quantile(exec, 0.50);
    r.layers["app.release_us.p50"] = quantile(release, 0.50);
  }

  std::unique_ptr<app::BlockStoreServer> p_app_, b_app_;
  std::unique_ptr<InvariantChecker> checker_;
  std::unique_ptr<harness::BlockWorkload> wl_;
};

// --- sharded -----------------------------------------------------------------

/// bench_capacity's Part 4 ring: four self-contained shards (client, cell,
/// router each), ring trunks, one flow in four crossing to the next shard.
class ShardedRun final : public FabricRun {
 public:
  static constexpr int kShards = 4;

  ShardedRun(const Spec& spec, bool traced) {
    gen_ = spec.tiny ? sim::Duration::millis(200) : sim::Duration::millis(500);
    rate_window_ = gen_;
    const std::size_t per_shard = spec.tiny ? 64 : 512;
    TopologyBuilder b(fabric_config(spec.seed));
    std::vector<int> routers;
    for (int k = 0; k < kShards; ++k) {
      if (k > 0) b.begin_shard();
      const auto sub = static_cast<std::uint8_t>(k + 1);
      const int lan = b.add_switch("shard" + std::to_string(k) + "lan");
      HostOptions copt;
      copt.with_stack = true;
      if (k > 0) copt.power_controller = b.add_power_controller();
      b.add_host("c" + std::to_string(k), {10, sub, 0, 1}, lan, copt);
      CellConfig cc;
      cc.name = "s" + std::to_string(k);
      cc.primary_ip = {10, sub, 0, 2};
      cc.backup_ip = {10, sub, 0, 3};
      cc.service_ip = {10, sub, 0, 100};
      cc.gateway_ip = {10, sub, 0, 254};
      cc.power_controller = copt.power_controller;
      b.add_cell(lan, cc);
      routers.push_back(b.add_router("r" + std::to_string(k)));
      b.connect_router(routers.back(), lan, {10, sub, 0, 254});
    }
    std::vector<std::pair<int, int>> ports;
    for (int k = 0; k < kShards; ++k) {
      const auto tsub = static_cast<std::uint8_t>(200 + k);
      ports.push_back(b.add_trunk(routers[static_cast<std::size_t>(k)],
                                  routers[static_cast<std::size_t>((k + 1) % kShards)],
                                  {10, tsub, 0, 1}, {10, tsub, 0, 2}));
    }
    topo_ = b.build();
    for (int k = 0; k < kShards; ++k) {
      const int nk = (k + 1) % kShards;
      const auto tsub = static_cast<std::uint8_t>(200 + k);
      const auto ks = static_cast<std::size_t>(k);
      topo_->router(ks).add_route({{10, static_cast<std::uint8_t>(nk + 1), 0, 0}, 24,
                                   ports[ks].first, {10, tsub, 0, 2}});
      topo_->router(static_cast<std::size_t>(nk))
          .add_route({{10, static_cast<std::uint8_t>(k + 1), 0, 0}, 24, ports[ks].second,
                      {10, tsub, 0, 1}});
    }
    topo_->set_threads(spec.threads);

    for (int k = 0; k < kShards; ++k) {
      harness::Cell& cell = topo_->cell(static_cast<std::size_t>(k));
      servers_.push_back(
          std::make_unique<app::SizedServer>(cell.primary_stack(), cell.service_port()));
      servers_.push_back(
          std::make_unique<app::SizedServer>(cell.backup_stack(), cell.service_port()));
      InvariantChecker::Options iopt;
      iopt.expect_masked = true;
      iopt.cell = k;
      checkers_.push_back(std::make_unique<InvariantChecker>(*topo_, iopt));
    }
    if (traced) {
      Probe::Options po;
      po.hb_port = topo_->config().sttcp.hb_port;
      start_probe(po);
    }
    for (int k = 0; k < kShards; ++k) {
      harness::WorkloadConfig wc = flow_config(per_shard, gen_);
      const net::SocketAddr own = topo_->cell(static_cast<std::size_t>(k)).connect_addr();
      const net::SocketAddr next =
          topo_->cell(static_cast<std::size_t>((k + 1) % kShards)).connect_addr();
      wc.target_for = [own, next](std::uint64_t flow_id, std::size_t) {
        return flow_id % 4 == 3 ? next : own;
      };
      Topology::HostEntry& client = topo_->host(static_cast<std::size_t>(k));
      loads_.push_back(std::make_unique<harness::Workload>(
          topo_->world(static_cast<std::size_t>(k)), *client.stack, client.ip, own, wc));
      loads_.back()->start();
    }
  }

  RunResult finish() override {
    quiet();
    RunResult r = std::move(result_);
    r.run_s = run_s_;
    r.ref_tick_s = ref_tick_s_;
    obs::Histogram fct;
    std::uint64_t digest = fabric_digest();
    for (int k = 0; k < kShards; ++k) {
      const harness::Workload& wl = *loads_[static_cast<std::size_t>(k)];
      flow_result(wl.stats(), r.sim);
      fct.merge(wl.fct_us());
      digest = fold(digest, wl.digest());
      if (!wl.drained()) {
        r.failures.push_back("sharded: shard " + std::to_string(k) + " flows still open");
      }
      violations(checkers_[static_cast<std::size_t>(k)]->check(wl),
                 "sharded shard " + std::to_string(k) + ": ", r);
    }
    latency(fct, r.sim);
    r.sim.events = run_events_;
    r.sim.sim_s = sim_s_;
    r.sim.sim_ops_per_s = std::max(rate_ops_, 0.0) / rate_window_.to_seconds();
    r.sim.digest = digest;
    return r;
  }

 private:
  bool drained() const override {
    return std::all_of(loads_.begin(), loads_.end(),
                       [](const auto& wl) { return wl->drained(); });
  }
  std::uint64_t completed() const override {
    std::uint64_t n = 0;
    for (const auto& wl : loads_) n += wl->stats().completed;
    return n;
  }
  void traced_end(RunResult& r) override {
    std::uint64_t completed = 0;
    std::vector<harness::Cell*> cells;
    for (int k = 0; k < kShards; ++k) {
      completed += loads_[static_cast<std::size_t>(k)]->stats().completed;
      cells.push_back(&topo_->cell(static_cast<std::size_t>(k)));
    }
    probe_layers(r, static_cast<double>(completed));
    r.layers["tcp.demux_hit_ratio.primary"] = demux_ratio(cells);
  }

  std::vector<std::unique_ptr<app::SizedServer>> servers_;
  std::vector<std::unique_ptr<InvariantChecker>> checkers_;
  std::vector<std::unique_ptr<harness::Workload>> loads_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"churn", "blockstore", "sharded"};
  return kNames;
}

std::unique_ptr<WorkloadRun> make_run(const std::string& workload, const Spec& spec,
                                      bool traced) {
  if (workload == "churn") return std::make_unique<ChurnRun>(spec, traced);
  if (workload == "blockstore") return std::make_unique<BlockRun>(spec, traced);
  if (workload == "sharded") return std::make_unique<ShardedRun>(spec, traced);
  throw std::invalid_argument("unknown workload: " + workload);
}

}  // namespace sttcp::perfbench
