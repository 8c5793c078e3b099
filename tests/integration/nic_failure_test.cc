// Demo 5 as tests: NIC/cable failures at the primary and at the backup
// (Table 1 row 4), plus the dual-heartbeat behaviours of §3 and §4.3.
#include <gtest/gtest.h>

#include <memory>

#include "app/client.h"
#include "app/server.h"
#include "harness/topology.h"

namespace sttcp::harness {
namespace {

using app::DownloadClient;
using app::FileServer;

struct Rig {
  explicit Rig(const ScenarioConfig& cfg = {})
      : topo(build_figure2(cfg)),
        cell(topo->cell()),
        client_host(*topo->host_by_name("client")) {}

  void start_file_service(std::uint64_t file_size) {
    primary_app = std::make_unique<FileServer>(cell.primary_stack(),
                                               cell.service_port(), file_size);
    backup_app = std::make_unique<FileServer>(cell.backup_stack(),
                                              cell.service_port(), file_size);
  }

  void start_download(std::uint64_t expected) {
    DownloadClient::Options opt;
    opt.expected_bytes = expected;
    client = std::make_unique<DownloadClient>(
        *client_host.stack, client_host.ip,
        std::vector<net::SocketAddr>{cell.connect_addr()}, opt);
    client->start();
  }

  std::unique_ptr<Topology> topo;
  Cell& cell;
  Topology::HostEntry& client_host;
  std::unique_ptr<FileServer> primary_app;
  std::unique_ptr<FileServer> backup_app;
  std::unique_ptr<DownloadClient> client;
};

TEST(NicFailureTest, PrimaryNicFailureTriggersTakeoverViaPingArbitration) {
  Rig rig;
  const std::uint64_t size = 40'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  rig.topo->inject(Fault::NicFailure(Node::kPrimary).at(sim::Duration::millis(500)));
  rig.topo->run_for(sim::Duration::seconds(60));

  EXPECT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());
  EXPECT_EQ(rig.client->connection_failures(), 0);
  const auto& trace = rig.topo->world().trace();
  // Both sides saw IP-HB death, kept the serial HB, and arbitration
  // convicted the primary.
  EXPECT_GE(trace.count("nic_arbitration_start"), 1u);
  EXPECT_EQ(trace.count("backup", "nic_failure_detected"), 1u);
  EXPECT_EQ(trace.count("backup", "takeover"), 1u);
  EXPECT_EQ(trace.count("primary", "nic_failure_detected"), 0u);
}

TEST(NicFailureTest, BackupNicFailureShutsBackupDown) {
  Rig rig;
  const std::uint64_t size = 40'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  rig.topo->inject(Fault::NicFailure(Node::kBackup).at(sim::Duration::millis(500)));
  rig.topo->run_for(sim::Duration::seconds(60));

  EXPECT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());
  EXPECT_EQ(rig.client->connection_failures(), 0);
  const auto& trace = rig.topo->world().trace();
  EXPECT_EQ(trace.count("primary", "nic_failure_detected"), 1u);
  EXPECT_EQ(trace.count("takeover"), 0u);
  EXPECT_EQ(rig.cell.primary_endpoint()->mode(),
            sttcp::StTcpEndpoint::Mode::kNonFaultTolerant);
  EXPECT_FALSE(rig.cell.backup().alive());  // powered down
  // Client service continued through the primary: tiny stall at most.
  EXPECT_LT(rig.client->max_stall().ms(), 1500);
}

TEST(NicFailureTest, SerialFailureAloneIsHarmless) {
  // Only the serial cable dies: the IP heartbeat continues, no failover.
  Rig rig;
  const std::uint64_t size = 10'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  rig.topo->inject(Fault::SerialCut().at(sim::Duration::millis(300)));
  rig.topo->run_for(sim::Duration::seconds(30));

  EXPECT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());
  const auto& trace = rig.topo->world().trace();
  EXPECT_EQ(trace.count("takeover"), 0u);
  EXPECT_EQ(trace.count("non_ft_mode"), 0u);
  EXPECT_FALSE(rig.cell.primary_endpoint()->serial_channel_alive());
  EXPECT_TRUE(rig.cell.primary_endpoint()->ip_channel_alive());
}

TEST(NicFailureTest, SingleHeartbeatChannelWouldMisfire) {
  // The §3 motivation for the dual heartbeat: with ONLY the IP channel, a
  // backup NIC failure looks (to the backup) like a dead primary, and the
  // backup would wrongly shut the primary down. With both channels, the
  // serial HB keeps flowing and the backup correctly concludes that only
  // the IP path is gone.
  Rig rig;
  const std::uint64_t size = 40'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  rig.topo->inject(Fault::NicFailure(Node::kBackup).at(sim::Duration::millis(500)));
  rig.topo->run_for(sim::Duration::seconds(5));
  // The backup never declared the primary dead, because the serial channel
  // stayed up.
  EXPECT_EQ(rig.topo->world().trace().count("backup", "peer_dead"), 0u);
  EXPECT_EQ(rig.topo->world().trace().count("backup", "takeover"), 0u);
  // The primary stays in charge throughout.
  EXPECT_TRUE(rig.cell.primary().alive());
}

TEST(NicFailureTest, TemporaryLossAtBackupIsRecoveredFromPrimary) {
  // Table 1 row 5: frames to the backup are dropped; the primary has
  // already ACKed those bytes so the client will not retransmit. The backup
  // must fetch them from the primary's hold buffer, and NO failover happens.
  Rig rig;
  const std::uint64_t size = 5'000'000;
  rig.start_file_service(size);

  // Upload direction matters here: use an echo-style workload where the
  // client sends data. StreamClient sends request bytes continuously.
  rig.primary_app.reset();
  rig.backup_app.reset();
  auto p_app = std::make_unique<app::StreamServer>(rig.cell.primary_stack(),
                                                   rig.cell.service_port(), 2000);
  auto b_app = std::make_unique<app::StreamServer>(rig.cell.backup_stack(),
                                                   rig.cell.service_port(), 2000);
  app::StreamClient client(*rig.client_host.stack, rig.client_host.ip,
                           rig.cell.connect_addr(), 2000, /*pipeline=*/8);
  client.start();
  // Drop a burst of frames on the backup's link only.
  rig.topo->inject(Fault::FrameLoss(Node::kBackup, 12).at(sim::Duration::millis(300)));
  rig.topo->run_for(sim::Duration::seconds(20));

  const auto& trace = rig.topo->world().trace();
  EXPECT_GE(trace.count("backup", "missed_bytes_request"), 1u);
  EXPECT_GE(trace.count("primary", "missed_bytes_served"), 1u);
  EXPECT_GE(trace.count("backup", "missed_bytes_injected"), 1u);
  EXPECT_EQ(trace.count("takeover"), 0u);
  EXPECT_EQ(trace.count("non_ft_mode"), 0u);
  EXPECT_FALSE(client.corrupt());
  EXPECT_GT(client.records_completed(), 100u);
  // And the system can still fail over afterwards (backup state is intact).
  rig.topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::zero()));
  rig.topo->run_for(sim::Duration::seconds(10));
  EXPECT_EQ(trace.count("backup", "takeover"), 1u);
  rig.topo->run_for(sim::Duration::seconds(5));
  EXPECT_FALSE(client.corrupt());
  EXPECT_FALSE(client.closed());
}

TEST(NicFailureTest, HoldBufferOverflowForcesNonFt) {
  // §4.3: "If the additional receive buffer space at the primary fills up,
  // the primary considers the backup failed and runs in non fault-tolerant
  // mode." A fault drops bulk frames toward the backup while heartbeats
  // (small) survive, so the backup keeps confirming an ever-staler position;
  // its recovery replies are bulk too and are lost. The client uploads
  // through the primary, whose hold buffer fills and overflows.
  ScenarioConfig cfg;
  // Large enough for steady state (~2.5 MB at line rate per heartbeat), so
  // the overflow below is unambiguously caused by the injected outage.
  cfg.sttcp.hold_buffer_capacity = 6 * 1024 * 1024;
  Rig rig(cfg);
  auto p_app = std::make_unique<app::SinkServer>(rig.cell.primary_stack(),
                                                 rig.cell.service_port());
  auto b_app = std::make_unique<app::SinkServer>(rig.cell.backup_stack(),
                                                 rig.cell.service_port());

  // Upload pump: the client streams pattern bytes to the service address.
  tcp::TcpConnection* conn = nullptr;
  std::uint64_t sent = 0;
  bool upload_failed = false;
  auto pump = [&] {
    while (conn != nullptr) {
      const std::size_t n = conn->send(app::pattern_bytes(sent, 8192));
      sent += n;
      if (n < 8192) break;
    }
  };
  tcp::TcpConnection::Callbacks cb;
  cb.on_established = [&] { pump(); };
  cb.on_writable = [&] { pump(); };
  cb.on_closed = [&](tcp::CloseReason) {
    conn = nullptr;
    upload_failed = true;
  };
  conn = &rig.client_host.stack->connect(rig.client_host.ip,
                                         rig.cell.connect_addr(),
                                         std::move(cb));

  // From t=200ms, bulk frames toward/from the backup are lost; heartbeats
  // and ACK-sized frames survive, so the dual HB stays up.
  rig.topo->world().loop().schedule_after(sim::Duration::millis(200), [&rig] {
    rig.cell.backup_link().set_drop_filter(
        [](const net::Frame& frame) { return frame.size() > 300; });
  });
  rig.topo->run_for(sim::Duration::seconds(30));

  const auto& trace = rig.topo->world().trace();
  EXPECT_GE(trace.count("primary", "hold_overflow"), 1u);
  EXPECT_EQ(rig.cell.primary_endpoint()->mode(),
            sttcp::StTcpEndpoint::Mode::kNonFaultTolerant);
  EXPECT_EQ(trace.count("takeover"), 0u);
  // The upload itself kept running through the primary.
  EXPECT_FALSE(upload_failed);
  EXPECT_GT(sent, 10'000'000u);
}

}  // namespace
}  // namespace sttcp::harness
