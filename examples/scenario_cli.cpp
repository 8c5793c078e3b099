// scenario_cli: a command-line driver for the ST-TCP simulator — run any
// single-failure scenario with chosen parameters and get a report. The tool
// an operator would use to explore configurations before deployment.
//
// Built on TopologyBuilder (the composable topology API): the default is
// the classic Figure-2 LAN, --routed moves the client behind an IP router
// onto its own subnet — the one-cell slice of the sharded fabric.
//
//   $ ./examples/scenario_cli --failure=primary-crash --hb-ms=500 --size-mb=50
//   $ ./examples/scenario_cli --failure=backup-nic --seed=7 --logger
//   $ ./examples/scenario_cli --failure=router-crash --routed
//   $ ./examples/scenario_cli --list
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "app/client.h"
#include "app/server.h"
#include "harness/topology.h"
#include "sttcp/logger.h"

namespace app = sttcp::app;
namespace net = sttcp::net;
namespace sim = sttcp::sim;
using sttcp::harness::Cell;
using sttcp::harness::CellConfig;
using sttcp::harness::Fault;
using sttcp::harness::HostOptions;
using sttcp::harness::Node;
using sttcp::harness::Topology;
using sttcp::harness::TopologyBuilder;
using sttcp::harness::TopologyConfig;

namespace {

struct Options {
  std::string failure = "primary-crash";
  int hb_ms = 200;
  int miss = 3;
  std::uint64_t size_mb = 40;
  std::uint64_t seed = 1;
  int crash_ms = 1000;
  bool logger = false;
  bool no_sttcp = false;
  bool routed = false;
  bool trace = false;
};

const char* const kFailures[] = {
    "none",         "primary-crash", "backup-crash",  "primary-app-hang",
    "backup-app-hang", "primary-app-fin", "backup-app-fin", "primary-nic",
    "backup-nic",   "serial-cut",    "backup-loss",   "router-crash",
};

void usage() {
  std::puts(
      "scenario_cli — run one ST-TCP failure scenario and report\n"
      "  --failure=<kind>   failure to inject (see --list; default primary-crash)\n"
      "  --hb-ms=<n>        heartbeat period in ms (default 200)\n"
      "  --miss=<n>         heartbeat miss threshold (default 3)\n"
      "  --size-mb=<n>      file size the client downloads (default 40)\n"
      "  --crash-ms=<n>     injection time in ms (default 1000)\n"
      "  --seed=<n>         simulation seed (default 1)\n"
      "  --logger           add the stream-logger host\n"
      "  --no-sttcp         plain TCP baseline (no replication)\n"
      "  --routed           client behind an IP router (separate subnets)\n"
      "  --trace            dump the full event trace at the end\n"
      "  --list             list failure kinds and exit\n");
}

bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    out = arg + n + 1;
    return true;
  }
  return false;
}

/// Everything the report needs from the built world.
struct World {
  std::unique_ptr<Topology> topo;
  std::unique_ptr<sttcp::sttcp::StreamLogger> logger;
  Cell* cell = nullptr;
  net::Ipv4Addr client_ip;
};

/// Classic flat LAN (Figure 2) or the routed one-cell fabric. The logger
/// host, when requested, joins the cell's multicast group on the cell's LAN
/// exactly like the Figure-2 recipe (build_figure2) wires it.
World build_world(const Options& opt) {
  World w;
  const bool routed = opt.routed;
  const std::uint8_t subnet = routed ? 1 : 0;
  const net::Ipv4Addr service{10, subnet, 0, 100};
  const net::Ipv4Addr logger_ip{10, subnet, 0, 9};

  TopologyConfig tc;
  tc.seed = opt.seed;
  tc.enable_sttcp = !opt.no_sttcp;
  tc.sttcp.hb_period = sim::Duration::millis(opt.hb_ms);
  tc.sttcp.hb_miss_threshold = opt.miss;
  if (opt.logger) tc.logger_ip = logger_ip;

  TopologyBuilder b(tc);
  const int client_lan = b.add_switch(routed ? "clientlan" : "switch");
  const int server_lan = routed ? b.add_switch("serverlan") : client_lan;

  HostOptions client_opt;
  client_opt.with_stack = true;
  w.client_ip = net::Ipv4Addr{10, 0, 0, 1};
  b.add_host("client", w.client_ip, client_lan, client_opt);

  CellConfig cc;
  cc.primary_ip = {10, subnet, 0, 2};
  cc.backup_ip = {10, subnet, 0, 3};
  cc.service_ip = service;
  cc.gateway_ip = {10, subnet, 0, 254};
  b.add_cell(server_lan, cc);

  int logger_idx = -1;
  if (!routed) b.add_host("gateway", {10, 0, 0, 254}, client_lan);
  if (opt.logger) {
    logger_idx = b.add_host("logger", logger_ip, server_lan);
    Topology::HostEntry& lh = b.topology().host(static_cast<std::size_t>(logger_idx));
    lh.host->add_ip(service);
    Cell& c = b.topology().cell(0);
    lh.host->nic().subscribe_multicast(c.multicast_mac());
    b.topology().ethernet_switch(static_cast<std::size_t>(server_lan))
        .add_multicast_group(c.multicast_mac(),
                             {c.primary_port(), c.backup_port(), lh.port});
  }
  if (routed) {
    const int r = b.add_router("core");
    b.connect_router(r, client_lan, {10, 0, 0, 254});
    b.connect_router(r, server_lan, {10, 1, 0, 254});
  }
  w.topo = b.build();
  w.cell = &w.topo->cell(0);
  if (logger_idx >= 0) {
    sttcp::sttcp::StreamLogger::Config lc;
    lc.service_ip = service;
    w.logger = std::make_unique<sttcp::sttcp::StreamLogger>(
        *w.topo->host(static_cast<std::size_t>(logger_idx)).host, lc);
  }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--help") == 0) {
      usage();
      return 0;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      for (const char* f : kFailures) std::printf("%s\n", f);
      return 0;
    } else if (std::strcmp(argv[i], "--logger") == 0) {
      opt.logger = true;
    } else if (std::strcmp(argv[i], "--no-sttcp") == 0) {
      opt.no_sttcp = true;
    } else if (std::strcmp(argv[i], "--routed") == 0) {
      opt.routed = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.trace = true;
    } else if (parse_flag(argv[i], "--failure", v)) {
      opt.failure = v;
    } else if (parse_flag(argv[i], "--hb-ms", v)) {
      opt.hb_ms = std::atoi(v.c_str());
    } else if (parse_flag(argv[i], "--miss", v)) {
      opt.miss = std::atoi(v.c_str());
    } else if (parse_flag(argv[i], "--size-mb", v)) {
      opt.size_mb = static_cast<std::uint64_t>(std::atoll(v.c_str()));
    } else if (parse_flag(argv[i], "--crash-ms", v)) {
      opt.crash_ms = std::atoi(v.c_str());
    } else if (parse_flag(argv[i], "--seed", v)) {
      opt.seed = static_cast<std::uint64_t>(std::atoll(v.c_str()));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      usage();
      return 2;
    }
  }
  if (opt.failure == "router-crash" && !opt.routed) {
    std::fprintf(stderr, "--failure=router-crash requires --routed\n");
    return 2;
  }

  World w = build_world(opt);
  Topology& topo = *w.topo;
  Cell& cell = *w.cell;

  const std::uint64_t size = opt.size_mb * 1'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  app::DownloadClient::Options copt;
  copt.expected_bytes = size;
  app::DownloadClient client(*topo.host(0).stack, w.client_ip,
                             {cell.connect_addr()}, copt);
  client.start();

  // Every failure is a Fault injected through the topology: each stamps the
  // "fault_injected" trace marker, so report tooling sees one vocabulary.
  const auto at = sim::Duration::millis(opt.crash_ms);
  std::optional<Fault> fault;
  if (opt.failure == "none") {
  } else if (opt.failure == "primary-crash") {
    fault = Fault::Crash(Node::kPrimary);
  } else if (opt.failure == "backup-crash") {
    fault = Fault::Crash(Node::kBackup);
  } else if (opt.failure == "primary-app-hang") {
    fault = Fault::Custom("app_hang:primary", [&](Topology&) { p_app.hang(); });
  } else if (opt.failure == "backup-app-hang") {
    fault = Fault::Custom("app_hang:backup", [&](Topology&) { b_app.hang(); });
  } else if (opt.failure == "primary-app-fin") {
    fault = Fault::Custom("app_fin:primary", [&](Topology&) { p_app.crash_clean(); });
  } else if (opt.failure == "backup-app-fin") {
    fault = Fault::Custom("app_fin:backup", [&](Topology&) { b_app.crash_clean(); });
  } else if (opt.failure == "primary-nic") {
    fault = Fault::NicFailure(Node::kPrimary);
  } else if (opt.failure == "backup-nic") {
    fault = Fault::NicFailure(Node::kBackup);
  } else if (opt.failure == "serial-cut") {
    fault = Fault::SerialCut();
  } else if (opt.failure == "backup-loss") {
    fault = Fault::FrameLoss(Node::kBackup, 12);
  } else if (opt.failure == "router-crash") {
    fault = Fault::Custom("router_crash:core", [](Topology& t) { t.router().crash(); });
    // A dead router is forever without repair; bring it back after 2 s so
    // the download can finish and the report shows the stall.
    topo.world().loop().schedule_after(at + sim::Duration::seconds(2),
                                       [&] { topo.router().restore(); });
  } else {
    std::fprintf(stderr, "unknown failure kind '%s' (see --list)\n",
                 opt.failure.c_str());
    return 2;
  }
  if (fault.has_value()) topo.inject(fault->at(at));

  topo.run_for(sim::Duration::seconds(240));

  std::printf("scenario:    %s (hb=%dms, miss=%d, seed=%llu%s%s%s)\n",
              opt.failure.c_str(), opt.hb_ms, opt.miss,
              static_cast<unsigned long long>(opt.seed),
              opt.no_sttcp ? ", plain TCP" : "", opt.logger ? ", +logger" : "",
              opt.routed ? ", routed" : "");
  std::printf("download:    %s (%llu / %llu bytes, %s)\n",
              client.complete() ? "complete" : "INCOMPLETE",
              static_cast<unsigned long long>(client.received()),
              static_cast<unsigned long long>(size),
              client.corrupt() ? "CORRUPT" : "verified");
  if (client.complete()) {
    std::printf("transfer:    %.3f s\n",
                (client.completed_at() - client.started_at()).to_seconds());
  }
  std::printf("client view: %d connection failure(s), longest stall %s\n",
              client.connection_failures(), client.max_stall().str().c_str());
  const auto& tr = topo.world().trace();
  for (const char* ev :
       {"peer_dead", "app_failure_detected", "nic_failure_detected",
        "hold_overflow", "watchdog_failure"}) {
    if (auto t = tr.first_time(ev)) {
      std::printf("detection:   %s at t=%s\n", ev, t->str().c_str());
      break;
    }
  }
  if (auto t = tr.first_time("takeover")) {
    std::printf("recovery:    backup takeover at t=%s\n", t->str().c_str());
  } else if (tr.count("non_ft_mode") > 0) {
    std::printf("recovery:    primary continued non-fault-tolerant\n");
  } else {
    std::printf("recovery:    none needed\n");
  }
  if (opt.trace) std::printf("\n--- trace ---\n%s", tr.dump().c_str());
  return client.corrupt() ? 1 : 0;
}
