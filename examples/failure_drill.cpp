// Failure drill: walks every failure class of the paper's Table 1 against a
// live record-stream service and narrates what ST-TCP does about each —
// an operator's tour of the failure-detection machinery.
//
//   $ ./examples/failure_drill
#include <cstdio>
#include <memory>

#include "app/client.h"
#include "app/server.h"
#include "harness/topology.h"

namespace app = sttcp::app;
namespace sim = sttcp::sim;
using sttcp::harness::Cell;
using sttcp::harness::Fault;
using sttcp::harness::Node;
using sttcp::harness::ScenarioConfig;
using sttcp::harness::Topology;
using sttcp::harness::build_figure2;

namespace {

/// Each drill builds its Fault once the servers exist (app-level faults wrap
/// a server method in Fault::Custom); Topology::inject() arms it.
void drill(const char* title, const char* expectation,
           const std::function<Fault(app::StreamServer& primary_app,
                                     app::StreamServer& backup_app)>& make_fault) {
  std::printf("\n=== %s ===\n    expectation: %s\n", title, expectation);

  ScenarioConfig cfg;
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(10);
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::StreamServer primary_app(cell.primary_stack(), cell.service_port(), 4000);
  app::StreamServer backup_app(cell.backup_stack(), cell.service_port(), 4000);
  app::StreamClient client(*client_host.stack, client_host.ip,
                           cell.connect_addr(), 4000, /*pipeline=*/8);
  client.start();
  topo->run_for(sim::Duration::millis(500));
  const std::uint64_t before = client.records_completed();

  topo->inject(make_fault(primary_app, backup_app));
  topo->run_for(sim::Duration::seconds(15));

  const auto& trace = topo->world().trace();
  const char* detection = "(none)";
  for (const char* ev :
       {"peer_dead", "app_failure_detected", "nic_failure_detected",
        "fin_disagreement", "hold_overflow"}) {
    if (trace.count(ev) > 0) {
      detection = ev;
      break;
    }
  }
  const char* action = trace.count("takeover") > 0 ? "backup took over"
                       : trace.count("non_ft_mode") > 0
                           ? "primary continued non-fault-tolerant"
                           : "no failover (handled below TCP)";
  std::printf("    detection:   %s\n", detection);
  std::printf("    action:      %s\n", action);
  std::printf("    client:      %llu -> %llu records, stream %s, connection %s\n",
              static_cast<unsigned long long>(before),
              static_cast<unsigned long long>(client.records_completed()),
              client.corrupt() ? "CORRUPT" : "intact",
              client.closed() ? "LOST" : "still open");
}

}  // namespace

int main() {
  std::printf("ST-TCP failure drill: one scenario per Table-1 row.\n"
              "A record-stream client keeps requesting throughout; every drill\n"
              "must end with the stream intact and the connection open.\n");

  drill("row 1: primary HW/OS crash",
        "both heartbeat channels die; backup takes over",
        [](app::StreamServer&, app::StreamServer&) {
          return Fault::Crash(Node::kPrimary);
        });

  drill("row 1: backup HW/OS crash",
        "primary shuts the backup down and continues alone",
        [](app::StreamServer&, app::StreamServer&) {
          return Fault::Crash(Node::kBackup);
        });

  drill("row 2: primary application hang (no FIN)",
        "AppMaxLag detection on the heartbeat counters; takeover",
        [](app::StreamServer& p, app::StreamServer&) {
          return Fault::Custom("app_hang:primary", [&p](Topology&) { p.hang(); });
        });

  drill("row 3: primary application crash, OS closes socket (FIN)",
        "the FIN is withheld (MaxDelayFIN); lag detection convicts; takeover",
        [](app::StreamServer& p, app::StreamServer&) {
          return Fault::Custom("app_fin_crash:primary",
                               [&p](Topology&) { p.crash_clean(); });
        });

  drill("row 3: backup application crash (FIN)",
        "the backup's FIN is discarded; primary goes non-fault-tolerant",
        [](app::StreamServer&, app::StreamServer& b) {
          return Fault::Custom("app_fin_crash:backup",
                               [&b](Topology&) { b.crash_clean(); });
        });

  drill("row 4: primary NIC failure",
        "IP heartbeat dies, serial survives; gateway-ping arbitration; takeover",
        [](app::StreamServer&, app::StreamServer&) {
          return Fault::NicFailure(Node::kPrimary);
        });

  drill("row 4: backup NIC failure",
        "byte-count comparison over the serial heartbeat convicts the backup",
        [](app::StreamServer&, app::StreamServer&) {
          return Fault::NicFailure(Node::kBackup);
        });

  drill("row 5: temporary loss toward the backup",
        "missed bytes fetched from the primary's hold buffer; NO failover",
        [](app::StreamServer&, app::StreamServer&) {
          return Fault::FrameLoss(Node::kBackup, 12);
        });

  std::printf("\nDrill complete.\n");
  return 0;
}
