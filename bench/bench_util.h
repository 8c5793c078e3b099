// Shared plumbing for the demo benchmarks: canned workloads over the
// Figure-2 scenario, returning the client-side metrics each table reports.
#pragma once

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "app/client.h"
#include "app/server.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "harness/topology.h"

namespace sttcp::bench {

using app::DownloadClient;
using app::FileServer;
using app::StreamClient;
using app::StreamServer;
using harness::Cell;
using harness::ScenarioConfig;
using harness::SweepRunner;
using harness::Table;
using harness::Topology;
using harness::build_figure2;

/// Machine-readable bench output: pass `--json=PATH` (or set
/// STTCP_BENCH_JSON=PATH) and every table is appended to PATH as one JSON
/// object per line, alongside the human-readable print.
class JsonSink {
 public:
  JsonSink(int argc, char** argv) {
    const char* path = std::getenv("STTCP_BENCH_JSON");
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--json=", 7) == 0) path = argv[i] + 7;
    }
    if (path != nullptr && *path != '\0') {
      out_ = std::make_unique<std::ofstream>(path);
    }
  }

  /// Emit `t` under `name` when JSON output is enabled; always a no-op cost
  /// otherwise.
  void table(const Table& t, const std::string& name) {
    if (out_ != nullptr) t.write_json(*out_, name);
  }

  explicit operator bool() const { return out_ != nullptr; }

 private:
  std::unique_ptr<std::ofstream> out_;
};

struct DownloadRun {
  bool complete = false;
  bool corrupt = true;
  std::uint64_t received = 0;
  int connection_failures = 0;
  int connects = 0;
  double transfer_secs = 0;
  double max_stall_ms = 0;
  double detection_ms = -1;   // crash -> detection event
  double takeover_ms = -1;    // crash -> takeover
  std::uint64_t hb_sent = 0;
  std::string outcome;        // takeover / non_ft / none
  /// Full registry dump (counters, histogram summaries, failover timeline)
  /// when cfg.enable_metrics was set; "{}" otherwise.
  std::string metrics_json = "{}";
};

struct DownloadSpec {
  std::uint64_t file_size = 20'000'000;
  sim::Duration crash_at = sim::Duration::zero();  // zero = no failure
  enum class FailureKind {
    kNone,
    kHwCrashPrimary,
    kHwCrashBackup,
    kAppHangPrimary,
    kAppHangBackup,
    kAppFinPrimary,
    kAppFinBackup,
    kAppRstPrimary,
    kAppRstBackup,
    kNicPrimary,
    kNicBackup,
  } failure = FailureKind::kNone;
  sim::Duration run_limit = sim::Duration::seconds(300);
  /// Baseline client behaviour (plain TCP): reconnect via stall timeout.
  bool baseline_reconnect = false;
  sim::Duration stall_timeout = sim::Duration::seconds(5);
};

inline DownloadRun run_download(ScenarioConfig cfg, const DownloadSpec& spec) {
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  FileServer p_app(cell.primary_stack(), cell.service_port(), spec.file_size);
  FileServer b_app(cell.backup_stack(), cell.service_port(), spec.file_size);

  DownloadClient::Options opt;
  opt.expected_bytes = spec.file_size;
  std::vector<net::SocketAddr> servers{cell.connect_addr()};
  if (spec.baseline_reconnect) {
    opt.reconnect = true;
    opt.reconnect_delay = sim::Duration::millis(10);
    opt.stall_timeout = spec.stall_timeout;
    servers.push_back(cell.backup_addr());
  }
  DownloadClient client(*client_host.stack, client_host.ip, servers, opt);
  client.start();

  // App-level faults wrap a server method in Fault::Custom so every failure
  // kind stamps the same fault_injected trace event and timeline milestone.
  using FK = DownloadSpec::FailureKind;
  using harness::Fault;
  using harness::Node;
  std::optional<Fault> fault;
  switch (spec.failure) {
    case FK::kNone:
      break;
    case FK::kHwCrashPrimary:
      fault = Fault::Crash(Node::kPrimary);
      break;
    case FK::kHwCrashBackup:
      fault = Fault::Crash(Node::kBackup);
      break;
    case FK::kAppHangPrimary:
      fault = Fault::Custom("app_hang:primary", [&p_app](Topology&) { p_app.hang(); });
      break;
    case FK::kAppHangBackup:
      fault = Fault::Custom("app_hang:backup", [&b_app](Topology&) { b_app.hang(); });
      break;
    case FK::kAppFinPrimary:
      fault = Fault::Custom("app_fin_crash:primary",
                            [&p_app](Topology&) { p_app.crash_clean(); });
      break;
    case FK::kAppFinBackup:
      fault = Fault::Custom("app_fin_crash:backup",
                            [&b_app](Topology&) { b_app.crash_clean(); });
      break;
    case FK::kAppRstPrimary:
      fault = Fault::Custom("app_rst_crash:primary",
                            [&p_app](Topology&) { p_app.crash_abort(); });
      break;
    case FK::kAppRstBackup:
      fault = Fault::Custom("app_rst_crash:backup",
                            [&b_app](Topology&) { b_app.crash_abort(); });
      break;
    case FK::kNicPrimary:
      fault = Fault::NicFailure(Node::kPrimary);
      break;
    case FK::kNicBackup:
      fault = Fault::NicFailure(Node::kBackup);
      break;
  }
  if (fault.has_value()) topo->inject(fault->at(spec.crash_at));

  topo->run_for(spec.run_limit);

  DownloadRun out;
  out.complete = client.complete();
  out.corrupt = client.corrupt();
  out.received = client.received();
  out.connection_failures = client.connection_failures();
  out.connects = client.connects();
  if (client.complete()) {
    out.transfer_secs = (client.completed_at() - client.started_at()).to_seconds();
  }
  out.max_stall_ms = client.max_stall().to_millis();
  const auto& tr = topo->world().trace();
  const sim::SimTime crash_time = sim::SimTime::zero() + spec.crash_at;
  for (const char* ev : {"peer_dead", "app_failure_detected", "nic_failure_detected",
                         "fin_disagreement", "hold_overflow", "watchdog_failure"}) {
    if (auto t = tr.first_time(ev)) {
      out.detection_ms = (*t - crash_time).to_millis();
      break;
    }
  }
  if (auto t = tr.first_time("takeover")) {
    out.takeover_ms = (*t - crash_time).to_millis();
    out.outcome = "takeover";
  } else if (tr.count("non_ft_mode") > 0) {
    out.outcome = "non_ft";
  } else {
    out.outcome = "none";
  }
  if (auto* ep = cell.primary_endpoint()) out.hb_sent = ep->stats().hb_sent;
  if (topo->metrics() != nullptr) out.metrics_json = topo->metrics_json();
  return out;
}

inline const char* ok(bool b) { return b ? "yes" : "NO"; }

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "Reproduces: " << paper_ref << "\n\n";
}

}  // namespace sttcp::bench
