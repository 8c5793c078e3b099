// Quickstart: the smallest end-to-end ST-TCP program.
//
// Builds the paper's topology (client, primary, backup, gateway on one
// switch + serial heartbeat cable), serves a file through the virtual
// service address, kills the primary halfway, and shows that the client's
// single TCP connection finishes intact on the backup.
//
//   $ ./examples/quickstart
#include <cstdio>

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

int main() {
  // 1. The topology: Figure 2 of the paper, fully wired. ST-TCP endpoints are
  //    already heartbeating on the IP and serial channels.
  ScenarioConfig cfg;
  cfg.sttcp.hb_period = sim::Duration::millis(200);
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");

  // 2. The service: a 30 MB file server. One instance per server — they are
  //    deterministic replicas; the backup's instance runs suppressed.
  constexpr std::uint64_t kFileSize = 30'000'000;
  app::FileServer primary_app(cell.primary_stack(), cell.service_port(), kFileSize);
  app::FileServer backup_app(cell.backup_stack(), cell.service_port(), kFileSize);

  // 3. The client: downloads from the service IP, verifying every byte.
  app::DownloadClient::Options opt;
  opt.expected_bytes = kFileSize;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();

  // 4. Halfway through: the primary suffers a hardware crash.
  topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::seconds(1)));

  // 5. Run the simulation.
  topo->run_for(sim::Duration::seconds(30));

  // 6. What the client experienced.
  std::printf("download complete:   %s\n", client.complete() ? "yes" : "no");
  std::printf("bytes received:      %llu / %llu (all verified: %s)\n",
              static_cast<unsigned long long>(client.received()),
              static_cast<unsigned long long>(kFileSize),
              client.corrupt() ? "NO" : "yes");
  std::printf("connection failures: %d (connects: %d)\n",
              client.connection_failures(), client.connects());
  std::printf("longest stall:       %s\n", client.max_stall().str().c_str());

  // 7. What happened behind the curtain.
  const auto& trace = topo->world().trace();
  if (auto t = trace.first_time("takeover")) {
    std::printf("\nbackup took over at t=%s (crash at t=1s);"
                " the client never noticed.\n",
                t->str().c_str());
  }
  return client.complete() && !client.corrupt() ? 0 : 1;
}
