// Pinned regressions: each test reconstructs, deterministically, a bug that
// was found by the randomized sweeps, so it can never return unnoticed.
#include <gtest/gtest.h>

#include <memory>

#include "app/client.h"
#include "app/server.h"
#include "harness/topology.h"

namespace sttcp::harness {
namespace {

TEST(RegressionTest, ReplicaSurvivesLostHandshakeAckOnTap) {
  // Bug (found by LossyFailoverTest seed 5): a replica only applied window
  // updates from "acceptable" ACKs. Every client ACK on a suppressed
  // replica acks data the replica has not sent, so if the handshake ACK
  // was lost on the backup's tap, snd_wnd_ stayed 0 forever: the replica
  // could never transmit, its app wedged with a full send buffer, and the
  // takeover produced a dead connection.
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 20'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);

  // Surgically drop the client's handshake ACK on the backup's link only:
  // the third small client frame (SYN is frame 1; the primary's SYN-ACK
  // does not traverse the backup link). Dropping the first two frames
  // toward the backup covers SYN + handshake-ACK, forcing the replica to
  // be created purely from the heartbeat announcement.
  cell.backup_link().drop_next(2);

  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(500)));
  topo->run_for(sim::Duration::seconds(60));

  EXPECT_TRUE(client.complete());
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  EXPECT_EQ(topo->world().trace().count("backup", "takeover"), 1u);
}

TEST(RegressionTest, GoBackNAfterLongOutage) {
  // Bug: after an RTO the stack retransmitted exactly one segment per
  // timeout and never resent the rest of the window, so recovery from a
  // multi-second outage crawled at one MSS per backed-off RTO (~9 s for a
  // 64 KB hole). Covered at the TCP layer by
  // TransferTest.OutageRecoveryIsPromptGoBackN; this is the ST-TCP-level
  // manifestation: the post-takeover catch-up has to finish promptly.
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 40'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::seconds(1)));
  topo->run_for(sim::Duration::seconds(60));
  ASSERT_TRUE(client.complete());
  // 40 MB at ~90 Mbps ≈ 3.6 s + ~1.4 s failover; the crawl made this > 12 s.
  EXPECT_LT((client.completed_at() - client.started_at()).to_seconds(), 8.0);
}

TEST(RegressionTest, ReplicaWritableReentrancyDoesNotOverServe) {
  // Bug: the replica's deferred-ACK application invoked on_writable
  // synchronously from inside the application's own send() call, re-entering
  // the app's serve loop and double-writing ~a send-buffer's worth of data;
  // the primary then "lagged" its own backup and a false failover fired.
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::StreamServer p_app(cell.primary_stack(), cell.service_port(), 2000);
  app::StreamServer b_app(cell.backup_stack(), cell.service_port(), 2000);
  app::StreamClient client(*client_host.stack, client_host.ip, cell.connect_addr(),
                           2000, 8);
  client.start();
  // A loss burst on the backup's tap triggers the missed-byte catch-up that
  // exposed the re-entrancy.
  topo->inject(Fault::FrameLoss(Node::kBackup, 12).at(sim::Duration::millis(300)));
  topo->run_for(sim::Duration::seconds(10));
  // Both apps must track each other byte-for-byte after recovery.
  EXPECT_EQ(p_app.stats().bytes_written, b_app.stats().bytes_written);
  EXPECT_EQ(topo->world().trace().count("takeover"), 0u);
  EXPECT_EQ(topo->world().trace().count("non_ft_mode"), 0u);
  EXPECT_FALSE(client.corrupt());
}

TEST(RegressionTest, EventHeartbeatsDoNotFloodSerialLink) {
  // Bug: connection announcements triggered an immediate full heartbeat on
  // BOTH channels; 100 simultaneous connections queued ~15 s of serial wire
  // time. Event-triggered heartbeats now use the IP channel only.
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::StreamServer p_app(cell.primary_stack(), cell.service_port(), 100);
  app::StreamServer b_app(cell.backup_stack(), cell.service_port(), 100);
  std::vector<std::unique_ptr<app::StreamClient>> clients;
  for (int i = 0; i < 100; ++i) {
    clients.push_back(std::make_unique<app::StreamClient>(
        *client_host.stack, client_host.ip, cell.connect_addr(), 100, 1));
    clients.back()->start();
  }
  topo->run_for(sim::Duration::seconds(2));
  EXPECT_LT(cell.serial().queue_delay(0), sim::Duration::millis(400));
}

TEST(RegressionTest, ConnectionChurnDuringCrashAllClientsEventuallyServed) {
  // Clients connect every 20 ms while the primary dies. Connections the
  // primary had accepted fail over (announced or ISN-inferred replicas);
  // connections still in the handshake may complete against a dead server
  // (the SYN-ACK left the wire before the crash) — a connect racing the
  // crash, which no server-side mechanism can adopt. Such clients notice
  // the dead connection via their stall timeout and reconnect to the (now
  // active) backup. Every client finishes with an intact stream.
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 500'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  std::vector<std::unique_ptr<app::DownloadClient>> clients;
  for (int i = 0; i < 25; ++i) {
    topo->world().loop().schedule_after(sim::Duration::millis(20 * i), [&, size] {
      app::DownloadClient::Options opt;
      opt.expected_bytes = size;
      opt.stall_timeout = sim::Duration::seconds(3);
      opt.reconnect = true;
      opt.reconnect_delay = sim::Duration::millis(50);
      clients.push_back(std::make_unique<app::DownloadClient>(
          *client_host.stack, client_host.ip,
          std::vector<net::SocketAddr>{cell.connect_addr()}, opt));
      clients.back()->start();
    });
  }
  topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(250)));  // mid-churn
  topo->run_for(sim::Duration::seconds(90));
  EXPECT_EQ(topo->world().trace().count("backup", "takeover"), 1u);
  int complete = 0;
  int corrupt = 0;
  for (const auto& c : clients) {
    complete += c->complete() ? 1 : 0;
    corrupt += c->corrupt() ? 1 : 0;
  }
  EXPECT_EQ(complete, 25);
  EXPECT_EQ(corrupt, 0);
}

}  // namespace
}  // namespace sttcp::harness
