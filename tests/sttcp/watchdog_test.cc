// Watchdog extension (§4.2.2): an application heartbeat whose absence is
// relayed through the ST-TCP heartbeat so even an idle-connection app crash
// is detected.
#include "sttcp/watchdog.h"

#include <gtest/gtest.h>

#include <memory>

#include "app/client.h"
#include "app/server.h"
#include "harness/topology.h"
#include "sttcp/endpoint.h"

namespace sttcp::sttcp {
namespace {

using harness::Cell;
using harness::Topology;

TEST(WatchdogTest, QuietAppRaisesSuspicion) {
  auto topo = harness::build_figure2({});
  Watchdog wd(topo->world(), *topo->cell().primary_endpoint(),
              sim::Duration::millis(100), 3);
  wd.start();
  // Pet regularly for a while: no suspicion.
  for (int i = 0; i < 10; ++i) {
    topo->world().loop().schedule_after(sim::Duration::millis(i * 50),
                                        [&wd] { wd.pet(); });
  }
  topo->run_for(sim::Duration::millis(600));
  EXPECT_FALSE(wd.suspicious());
  // Stop petting: suspicion after ~3 intervals.
  topo->run_for(sim::Duration::seconds(1));
  EXPECT_TRUE(wd.suspicious());
  EXPECT_EQ(topo->world().trace().count("watchdog", "app_suspect"), 1u);
}

TEST(WatchdogTest, StoppedWatchdogStaysQuiet) {
  auto topo = harness::build_figure2({});
  Watchdog wd(topo->world(), *topo->cell().primary_endpoint(),
              sim::Duration::millis(100), 3);
  wd.start();
  wd.stop();
  topo->run_for(sim::Duration::seconds(2));
  EXPECT_FALSE(wd.suspicious());
}

TEST(WatchdogTest, PrimaryWatchdogSuspicionTriggersTakeover) {
  // An idle-connection primary app crash produces no lag and no FIN —
  // undetectable at the TCP layer (the paper's stated limitation). The
  // watchdog closes the gap: the backup takes over on the relayed suspicion.
  auto topo = harness::build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::StreamServer p_app(cell.primary_stack(), cell.service_port(), 1000);
  app::StreamServer b_app(cell.backup_stack(), cell.service_port(), 1000);
  Watchdog wd(topo->world(), *cell.primary_endpoint(), sim::Duration::millis(100), 3);
  p_app.set_heartbeat_hook([&wd] { wd.pet(); });
  // Idle-keepalive petting, as a real integration would do.
  sim::PeriodicTimer petter(topo->world().loop());
  petter.start(sim::Duration::millis(50), [&] {
    if (!p_app.hung()) wd.pet();
  });
  wd.start();

  app::StreamClient client(*client_host.stack, client_host.ip, cell.connect_addr(),
                           1000, 1);
  client.start();
  topo->run_for(sim::Duration::seconds(1));
  EXPECT_GT(client.records_completed(), 0u);

  // The app hangs while the connection happens to be idle.
  p_app.hang();
  topo->run_for(sim::Duration::seconds(3));
  EXPECT_TRUE(wd.suspicious());
  EXPECT_EQ(topo->world().trace().count("backup", "watchdog_failure"), 1u);
  EXPECT_EQ(topo->world().trace().count("backup", "takeover"), 1u);
  // Service resumes on the backup.
  topo->run_for(sim::Duration::seconds(3));
  EXPECT_FALSE(client.corrupt());
  EXPECT_FALSE(client.closed());
}

TEST(WatchdogTest, BackupWatchdogSuspicionForcesNonFt) {
  auto topo = harness::build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::StreamServer p_app(cell.primary_stack(), cell.service_port(), 1000);
  app::StreamServer b_app(cell.backup_stack(), cell.service_port(), 1000);
  Watchdog wd(topo->world(), *cell.backup_endpoint(), sim::Duration::millis(100), 3);
  wd.start();  // never petted: suspicion fires quickly

  app::StreamClient client(*client_host.stack, client_host.ip, cell.connect_addr(),
                           1000, 1);
  client.start();
  topo->run_for(sim::Duration::seconds(3));
  EXPECT_EQ(topo->world().trace().count("primary", "watchdog_failure"), 1u);
  EXPECT_EQ(cell.primary_endpoint()->mode(), StTcpEndpoint::Mode::kNonFaultTolerant);
  EXPECT_EQ(topo->world().trace().count("takeover"), 0u);
  topo->run_for(sim::Duration::seconds(2));
  EXPECT_FALSE(client.corrupt());
  EXPECT_FALSE(client.closed());
}

}  // namespace
}  // namespace sttcp::sttcp
