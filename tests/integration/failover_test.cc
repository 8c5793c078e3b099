// End-to-end ST-TCP: Demo 1's scenario as a test. A client downloads a file
// through the virtual service address; the primary is crashed mid-transfer;
// the backup must take over the same TCP connection transparently and the
// client must receive every byte intact on the ORIGINAL connection.
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

TEST(FailoverTest, TransferCompletesWithoutFailures) {
  Rig rig;
  const std::uint64_t size = 2'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  rig.topo->run_for(sim::Duration::seconds(10));
  EXPECT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());
  EXPECT_EQ(rig.client->connection_failures(), 0);
  // No failover happened.
  EXPECT_EQ(rig.topo->world().trace().count("takeover"), 0u);
  EXPECT_EQ(rig.cell.backup_endpoint()->mode(),
            sttcp::StTcpEndpoint::Mode::kReplicating);
}

TEST(FailoverTest, BackupReplicatesConnectionState) {
  Rig rig;
  const std::uint64_t size = 500'000;
  rig.start_file_service(size);
  rig.start_download(size);
  rig.topo->run_for(sim::Duration::seconds(5));
  ASSERT_TRUE(rig.client->complete());
  // The backup app served the same bytes (all suppressed).
  EXPECT_EQ(rig.backup_app->stats().bytes_written, size);
  EXPECT_EQ(rig.backup_app->stats().connections_accepted, 1u);
  EXPECT_EQ(rig.topo->world().trace().count("backup", "replica_created"), 1u);
  EXPECT_EQ(rig.topo->world().trace().count("primary", "announce_confirmed"), 1u);
  // Nothing from the backup reached the wire on the service connection.
  EXPECT_EQ(rig.cell.backup_stack().stats().rst_sent, 0u);
}

TEST(FailoverTest, PrimaryCrashMidTransferIsMaskedFromClient) {
  Rig rig;
  const std::uint64_t size = 20'000'000;  // long enough to straddle the crash
  rig.start_file_service(size);
  rig.start_download(size);
  rig.topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(500)));
  rig.topo->run_for(sim::Duration::seconds(60));

  // The client finished the download with zero connection failures: the
  // failover was transparent.
  EXPECT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());
  EXPECT_EQ(rig.client->received(), size);
  EXPECT_EQ(rig.client->connection_failures(), 0);
  EXPECT_EQ(rig.client->connects(), 1);

  // Exactly one takeover; the backup powered the primary down first.
  const auto& trace = rig.topo->world().trace();
  EXPECT_EQ(trace.count("backup", "takeover"), 1u);
  EXPECT_EQ(rig.cell.backup_endpoint()->mode(),
            sttcp::StTcpEndpoint::Mode::kTakenOver);
  EXPECT_TRUE(trace.strictly_before("stonith", "takeover"));

  // Client-visible stall: detection (3 x 200ms HB) + TCP retransmission
  // backoff. Sanity bounds rather than exact numbers.
  const sim::Duration stall = rig.client->max_stall();
  EXPECT_GT(stall.ms(), 400);
  EXPECT_LT(stall.ms(), 5000);
}

TEST(FailoverTest, WithoutStTcpClientMustReconnect) {
  ScenarioConfig cfg;
  cfg.enable_sttcp = false;
  cfg.tcp.max_retries = 6;  // fail the dead connection within seconds
  Rig rig(cfg);
  const std::uint64_t size = 20'000'000;
  rig.start_file_service(size);

  DownloadClient::Options opt;
  opt.expected_bytes = size;
  opt.reconnect = true;
  opt.reconnect_delay = sim::Duration::millis(10);
  // The GUI user notices the frozen progress bar after a few seconds and
  // reconnects; without this (or TCP keepalive) a pure receiver would hang
  // on a dead server forever.
  opt.stall_timeout = sim::Duration::seconds(5);
  rig.client = std::make_unique<DownloadClient>(
      *rig.client_host.stack, rig.client_host.ip,
      std::vector<net::SocketAddr>{rig.cell.connect_addr(),
                                   rig.cell.backup_addr()},
      opt);
  rig.client->start();
  rig.topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(500)));
  rig.topo->run_for(sim::Duration::seconds(120));

  // The download ultimately completes (against the hot backup), but the
  // client saw a broken connection and had to reconnect — the disruption
  // ST-TCP exists to remove.
  EXPECT_TRUE(rig.client->complete());
  EXPECT_GE(rig.client->connection_failures(), 1);
  EXPECT_GE(rig.client->connects(), 2);
  // The service interruption dwarfs ST-TCP's sub-second glitch: the stall
  // lasted at least the detection timeout.
  const auto stall_at = rig.topo->world().trace().first_time("stall_timeout");
  ASSERT_TRUE(stall_at.has_value());
  EXPECT_GT((*stall_at - sim::SimTime::zero()).ms(), 5000);  // crash at 500ms + 5s
}

TEST(FailoverTest, StreamContinuityAcrossTakeover) {
  // The strongest invariant: the byte stream the client sees is the SAME
  // stream regardless of which server produced which half. pattern_verify
  // inside DownloadClient checks every offset; additionally ensure bytes
  // continued beyond the crash point.
  Rig rig;
  const std::uint64_t size = 30'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  rig.topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::seconds(1)));
  rig.topo->run_for(sim::Duration::seconds(60));
  ASSERT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());

  // Find bytes received before and after the takeover.
  const auto takeover_at = rig.topo->world().trace().first_time("takeover");
  ASSERT_TRUE(takeover_at.has_value());
  std::uint64_t before = 0, after = 0;
  for (const auto& s : rig.client->timeline()) {
    if (s.at < *takeover_at) {
      before = s.total_bytes;
    } else {
      after = s.total_bytes;
    }
  }
  EXPECT_GT(before, 0u);
  EXPECT_GT(after, before);
  EXPECT_EQ(after, size);
}

TEST(FailoverTest, BackupCrashLeavesPrimaryServingNonFt) {
  Rig rig;
  const std::uint64_t size = 20'000'000;
  rig.start_file_service(size);
  rig.start_download(size);
  rig.topo->inject(Fault::Crash(Node::kBackup).at(sim::Duration::millis(500)));
  rig.topo->run_for(sim::Duration::seconds(60));

  EXPECT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());
  EXPECT_EQ(rig.client->connection_failures(), 0);
  EXPECT_EQ(rig.cell.primary_endpoint()->mode(),
            sttcp::StTcpEndpoint::Mode::kNonFaultTolerant);
  EXPECT_EQ(rig.topo->world().trace().count("takeover"), 0u);
  EXPECT_EQ(rig.topo->world().trace().count("primary", "non_ft_mode"), 1u);
  // The client baerly notices: the primary never stopped serving.
  EXPECT_LT(rig.client->max_stall().ms(), 500);
}

TEST(FailoverTest, CrashBeforeAnyConnectionStillFailsOver) {
  Rig rig;
  rig.start_file_service(1'000'000);
  // Crash the primary before the client ever connects.
  rig.topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(100)));
  rig.topo->run_for(sim::Duration::seconds(2));
  EXPECT_EQ(rig.topo->world().trace().count("backup", "takeover"), 1u);
  // A client connecting afterwards is served by the (now active) backup
  // through the same service address.
  rig.start_download(1'000'000);
  rig.topo->run_for(sim::Duration::seconds(10));
  EXPECT_TRUE(rig.client->complete());
  EXPECT_FALSE(rig.client->corrupt());
}

TEST(FailoverTest, IdleConnectionSurvivesFailover) {
  // No data in flight when the primary dies; the connection must still be
  // usable afterwards. StreamServer + StreamClient: request/response.
  Rig rig;
  auto p_app = std::make_unique<app::StreamServer>(rig.cell.primary_stack(),
                                                   rig.cell.service_port(), 1000);
  auto b_app = std::make_unique<app::StreamServer>(rig.cell.backup_stack(),
                                                   rig.cell.service_port(), 1000);
  app::StreamClient client(*rig.client_host.stack, rig.client_host.ip,
                           rig.cell.connect_addr(), 1000, /*pipeline=*/1);
  client.start();
  // Let a few records flow, go idle, crash, then keep using the connection.
  rig.topo->run_for(sim::Duration::seconds(1));
  const std::uint64_t before = client.records_completed();
  EXPECT_GT(before, 0u);
  rig.topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(100)));
  rig.topo->run_for(sim::Duration::seconds(5));
  EXPECT_EQ(rig.topo->world().trace().count("backup", "takeover"), 1u);
  rig.topo->run_for(sim::Duration::seconds(5));
  EXPECT_FALSE(client.closed());
  EXPECT_GT(client.records_completed(), before);
  EXPECT_FALSE(client.corrupt());
}

}  // namespace
}  // namespace sttcp::harness
