// Endpoint-level behaviours not covered by the scenario integration tests:
// heartbeat bookkeeping, channel liveness, announce/confirm handshake,
// FIN timing, Demo-2's failover-time shape, and Demo-3's overhead shape.
#include "sttcp/endpoint.h"

#include <gtest/gtest.h>

#include <memory>

#include "app/client.h"
#include "app/server.h"
#include "harness/scenario.h"

namespace sttcp::sttcp {
namespace {

using harness::Scenario;
using harness::ScenarioConfig;

TEST(EndpointTest, HeartbeatsFlowOnBothChannels) {
  Scenario sc{ScenarioConfig{}};
  sc.run_for(sim::Duration::seconds(2));
  const auto& p = sc.primary_endpoint()->stats();
  const auto& b = sc.backup_endpoint()->stats();
  // ~5 HB/s for 2s on each side, received on both channels.
  EXPECT_GE(p.hb_sent, 9u);
  EXPECT_GE(p.hb_received_ip, 9u);
  EXPECT_GE(p.hb_received_serial, 9u);
  EXPECT_GE(b.hb_received_ip, 9u);
  EXPECT_GE(b.hb_received_serial, 9u);
  EXPECT_TRUE(sc.primary_endpoint()->ip_channel_alive());
  EXPECT_TRUE(sc.primary_endpoint()->serial_channel_alive());
}

TEST(EndpointTest, NoConnectionsMeansEmptyHeartbeat) {
  Scenario sc{ScenarioConfig{}};
  sc.run_for(sim::Duration::seconds(1));
  EXPECT_EQ(sc.primary_endpoint()->replicated_connections(), 0u);
  EXPECT_EQ(sc.backup_endpoint()->replicated_connections(), 0u);
}

TEST(EndpointTest, ClosedConnectionsAreGarbageCollected) {
  Scenario sc{ScenarioConfig{}};
  app::FileServer p_app(sc.primary_stack(), sc.service_port(), 100'000);
  app::FileServer b_app(sc.backup_stack(), sc.service_port(), 100'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 100'000;
  app::DownloadClient client(sc.client_stack(), sc.client_ip(),
                             {sc.connect_addr()}, opt);
  client.start();
  sc.run_for(sim::Duration::seconds(2));
  ASSERT_TRUE(client.complete());
  EXPECT_EQ(sc.primary_endpoint()->replicated_connections(), 1u);
  // After the close linger, the replication records disappear.
  sc.run_for(sim::Duration::seconds(10));
  EXPECT_EQ(sc.primary_endpoint()->replicated_connections(), 0u);
  EXPECT_EQ(sc.backup_endpoint()->replicated_connections(), 0u);
  // And the TCP connections themselves are gone (TIME_WAIT elapsed).
  EXPECT_EQ(sc.primary_stack().connection_count(), 0u);
  EXPECT_EQ(sc.client_stack().connection_count(), 0u);
}

TEST(EndpointTest, SequentialConnectionsEachReplicated) {
  Scenario sc{ScenarioConfig{}};
  app::FileServer p_app(sc.primary_stack(), sc.service_port(), 50'000);
  app::FileServer b_app(sc.backup_stack(), sc.service_port(), 50'000);
  for (int i = 0; i < 5; ++i) {
    app::DownloadClient::Options opt;
    opt.expected_bytes = 50'000;
    app::DownloadClient client(sc.client_stack(), sc.client_ip(),
                               {sc.connect_addr()}, opt);
    client.start();
    sc.run_for(sim::Duration::seconds(1));
    EXPECT_TRUE(client.complete()) << i;
    EXPECT_FALSE(client.corrupt()) << i;
  }
  EXPECT_EQ(sc.world().trace().count("backup", "replica_created"), 5u);
  EXPECT_EQ(sc.world().trace().count("takeover"), 0u);
}

TEST(EndpointTest, ConcurrentConnectionsAllReplicatedAndFailedOver) {
  Scenario sc{ScenarioConfig{}};
  app::FileServer p_app(sc.primary_stack(), sc.service_port(), 3'000'000);
  app::FileServer b_app(sc.backup_stack(), sc.service_port(), 3'000'000);
  std::vector<std::unique_ptr<app::DownloadClient>> clients;
  for (int i = 0; i < 8; ++i) {
    app::DownloadClient::Options opt;
    opt.expected_bytes = 3'000'000;
    clients.push_back(std::make_unique<app::DownloadClient>(
        sc.client_stack(), sc.client_ip(),
        std::vector<net::SocketAddr>{sc.connect_addr()}, opt));
    clients.back()->start();
  }
  sc.inject(harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(400)));
  sc.run_for(sim::Duration::seconds(60));
  EXPECT_EQ(sc.world().trace().count("backup", "takeover"), 1u);
  for (auto& c : clients) {
    EXPECT_TRUE(c->complete());
    EXPECT_FALSE(c->corrupt());
    EXPECT_EQ(c->connection_failures(), 0);
  }
}

TEST(EndpointTest, ReplicaIsnInferredFromHandshakeAckThenRemapped) {
  // Paper §2: "during TCP connection initialization, the backup changes its
  // initial sequence number to match that of the primary." The backup infers
  // the primary's ISS from the tapped handshake ACK (ack-1) without waiting
  // for the announcement; when the announcement arrives it only remaps the
  // replication id.
  Scenario sc{ScenarioConfig{}};
  app::FileServer p_app(sc.primary_stack(), sc.service_port(), 200'000);
  app::FileServer b_app(sc.backup_stack(), sc.service_port(), 200'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 200'000;
  app::DownloadClient client(sc.client_stack(), sc.client_ip(),
                             {sc.connect_addr()}, opt);
  client.start();
  sc.run_for(sim::Duration::seconds(3));
  ASSERT_TRUE(client.complete());
  const auto& tr = sc.world().trace();
  EXPECT_EQ(tr.count("backup", "replica_inferred"), 1u);
  EXPECT_EQ(tr.count("backup", "replica_id_remapped"), 1u);
  EXPECT_TRUE(tr.strictly_before("replica_inferred", "replica_id_remapped"));
  // Exactly one replica connection existed (no duplicate from the announce).
  EXPECT_EQ(sc.backup_stack().stats().replicas_created, 1u);
}

TEST(EndpointTest, InferredReplicaSurvivesPrimaryDeathBeforeAnnounce) {
  // The case that motivates inference: the primary accepts and answers the
  // client but dies before any announcement reaches the backup. The
  // inferred replica still owns the connection after takeover.
  ScenarioConfig cfg;
  Scenario sc(std::move(cfg));
  app::FileServer p_app(sc.primary_stack(), sc.service_port(), 10'000'000);
  app::FileServer b_app(sc.backup_stack(), sc.service_port(), 10'000'000);
  // Eat ALL primary->backup announce datagrams: UDP heartbeats on the IP
  // path die, serial heartbeats (periodic only) still flow but announces are
  // carried there too — so instead crash the primary right after the
  // handshake completes, before the first serial heartbeat with the record.
  app::DownloadClient::Options opt;
  opt.expected_bytes = 10'000'000;
  app::DownloadClient client(sc.client_stack(), sc.client_ip(),
                             {sc.connect_addr()}, opt);
  client.start();
  // The immediate (IP-only) announce is dropped; the next serial HB would
  // be at 200 ms — the primary dies at 50 ms. Drop exactly the primary's
  // UDP frames (heartbeats/control), leaving its TCP traffic untouched:
  // the IPv4 protocol byte sits at Ethernet(14) + 9.
  sc.primary_link().set_drop_filter(
      [](const net::Frame& f) { return f.size() > 23 && f[23] == 17; });
  sc.inject(harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(50)));
  sc.run_for(sim::Duration::seconds(60));
  EXPECT_TRUE(client.complete());
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  EXPECT_GE(sc.world().trace().count("backup", "replica_inferred"), 1u);
  EXPECT_EQ(sc.world().trace().count("backup", "takeover"), 1u);
}

TEST(EndpointTest, FailoverTimeGrowsWithHbPeriod) {
  // Demo 2's shape: failover time is dominated by detection time
  // (miss_threshold x hb_period) plus retransmission alignment, so it must
  // grow monotonically across 200ms / 500ms / 1s.
  sim::Duration stalls[3];
  const sim::Duration periods[3] = {sim::Duration::millis(200),
                                    sim::Duration::millis(500),
                                    sim::Duration::seconds(1)};
  for (int i = 0; i < 3; ++i) {
    ScenarioConfig cfg;
    cfg.sttcp.hb_period = periods[i];
    Scenario sc(std::move(cfg));
    app::FileServer p_app(sc.primary_stack(), sc.service_port(), 40'000'000);
    app::FileServer b_app(sc.backup_stack(), sc.service_port(), 40'000'000);
    app::DownloadClient::Options opt;
    opt.expected_bytes = 40'000'000;
    app::DownloadClient client(sc.client_stack(), sc.client_ip(),
                               {sc.connect_addr()}, opt);
    client.start();
    sc.inject(harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(700)));
    sc.run_for(sim::Duration::seconds(120));
    ASSERT_TRUE(client.complete()) << "period " << periods[i].str();
    stalls[i] = client.max_stall();
    // Detection cannot be faster than miss_threshold periods.
    EXPECT_GE(stalls[i], periods[i] * 3) << periods[i].str();
  }
  EXPECT_LT(stalls[0], stalls[1]);
  EXPECT_LT(stalls[1], stalls[2]);
}

TEST(EndpointTest, FailureFreeOverheadIsSmall) {
  // Demo 3's shape: a large transfer with ST-TCP enabled vs plain TCP
  // completes in nearly the same time (HB traffic is ~kbps against a
  // 100 Mbps data path).
  double secs[2];
  for (int pass = 0; pass < 2; ++pass) {
    ScenarioConfig cfg;
    cfg.enable_sttcp = (pass == 0);
    Scenario sc(std::move(cfg));
    app::FileServer p_app(sc.primary_stack(), sc.service_port(), 20'000'000);
    app::FileServer b_app(sc.backup_stack(), sc.service_port(), 20'000'000);
    app::DownloadClient::Options opt;
    opt.expected_bytes = 20'000'000;
    app::DownloadClient client(sc.client_stack(), sc.client_ip(),
                               {sc.connect_addr()}, opt);
    client.start();
    sc.run_for(sim::Duration::seconds(60));
    ASSERT_TRUE(client.complete());
    EXPECT_FALSE(client.corrupt());
    secs[pass] = (client.completed_at() - client.started_at()).to_seconds();
  }
  const double overhead = (secs[0] - secs[1]) / secs[1];
  EXPECT_LT(overhead, 0.05) << "with=" << secs[0] << "s plain=" << secs[1] << "s";
  EXPECT_GT(overhead, -0.05);
}

TEST(EndpointTest, ImmediateRetransmitShortensFailover) {
  // Ablation of our extension: takeover with an immediate retransmission
  // beats the paper's wait-for-next-timer behaviour.
  sim::Duration stall[2];
  for (int pass = 0; pass < 2; ++pass) {
    ScenarioConfig cfg;
    cfg.sttcp.immediate_retransmit_on_takeover = (pass == 1);
    Scenario sc(std::move(cfg));
    app::FileServer p_app(sc.primary_stack(), sc.service_port(), 40'000'000);
    app::FileServer b_app(sc.backup_stack(), sc.service_port(), 40'000'000);
    app::DownloadClient::Options opt;
    opt.expected_bytes = 40'000'000;
    app::DownloadClient client(sc.client_stack(), sc.client_ip(),
                               {sc.connect_addr()}, opt);
    client.start();
    sc.inject(harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(700)));
    sc.run_for(sim::Duration::seconds(120));
    ASSERT_TRUE(client.complete());
    stall[pass] = client.max_stall();
  }
  EXPECT_LT(stall[1], stall[0]);
}

TEST(EndpointTest, TakeoverWithoutPowerControlStillProceeds) {
  // STONITH failing (management fault) is logged but does not wedge the
  // takeover. (With a truly half-dead primary this would risk dual-active —
  // exactly why the paper powers the primary down; the trace records the
  // failed attempt.)
  ScenarioConfig cfg;
  Scenario sc(std::move(cfg));
  sc.power().set_functional(false);
  app::FileServer p_app(sc.primary_stack(), sc.service_port(), 20'000'000);
  app::FileServer b_app(sc.backup_stack(), sc.service_port(), 20'000'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 20'000'000;
  app::DownloadClient client(sc.client_stack(), sc.client_ip(),
                             {sc.connect_addr()}, opt);
  client.start();
  sc.inject(harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(400)));
  sc.run_for(sim::Duration::seconds(60));
  EXPECT_EQ(sc.world().trace().count("backup", "takeover"), 1u);
  EXPECT_TRUE(client.complete());
}

TEST(EndpointTest, NormalCloseCompletesWithinOneHeartbeat) {
  // §4.2.2: "during normal operation — when neither the primary nor the
  // backup has failed — the FIN is not delayed by MaxDelayFIN." The primary
  // waits at most ~a heartbeat for the backup's FIN notice.
  ScenarioConfig cfg;
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(60);
  Scenario sc(std::move(cfg));
  app::FileServer p_app(sc.primary_stack(), sc.service_port(), 100'000);
  app::FileServer b_app(sc.backup_stack(), sc.service_port(), 100'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 100'000;
  app::DownloadClient client(sc.client_stack(), sc.client_ip(),
                             {sc.connect_addr()}, opt);
  client.start();
  sc.run_for(sim::Duration::seconds(5));
  ASSERT_TRUE(client.complete());
  // The whole transfer including close stayed far below MaxDelayFIN.
  EXPECT_LT((client.completed_at() - client.started_at()).to_seconds(), 1.0);
  EXPECT_EQ(sc.world().trace().count("fin_released_after_delay"), 0u);
  // The client heard the server FIN (peer_closed drove completion).
  EXPECT_EQ(sc.world().trace().count("primary", "fin_agreed"), 1u);
}

TEST(EndpointTest, ManyConnectionsHeartbeatStaysUnderSerialBudget) {
  // §3 sizing: at 200 ms HB, 100 connections consume ~80 kbps of the
  // 115.2 kbps serial link. Verify the serial channel still delivers
  // heartbeats with 100 live connections.
  ScenarioConfig cfg;
  Scenario sc(std::move(cfg));
  app::StreamServer p_app(sc.primary_stack(), sc.service_port(), 100);
  app::StreamServer b_app(sc.backup_stack(), sc.service_port(), 100);
  std::vector<std::unique_ptr<app::StreamClient>> clients;
  for (int i = 0; i < 100; ++i) {
    clients.push_back(std::make_unique<app::StreamClient>(
        sc.client_stack(), sc.client_ip(), sc.connect_addr(), 100, 1));
    clients.back()->start();
  }
  sc.run_for(sim::Duration::seconds(5));
  EXPECT_EQ(sc.primary_endpoint()->replicated_connections(), 100u);
  EXPECT_TRUE(sc.primary_endpoint()->serial_channel_alive());
  EXPECT_TRUE(sc.backup_endpoint()->serial_channel_alive());
  EXPECT_EQ(sc.world().trace().count("takeover"), 0u);
  EXPECT_EQ(sc.world().trace().count("non_ft_mode"), 0u);
  // Serial link utilisation stays under capacity (queue drains).
  EXPECT_LT(sc.serial().queue_delay(0), sim::Duration::millis(200));
}

TEST(EndpointTest, LongFailureFreeSoakNeverMisfires) {
  // Two minutes of mixed traffic with no injected failure: the detectors
  // (lag, FIN arbitration, NIC arbitration, hold buffer) must stay silent.
  Scenario sc{ScenarioConfig{}};
  app::StreamServer p_stream(sc.primary_stack(), sc.service_port(), 3000);
  app::StreamServer b_stream(sc.backup_stack(), sc.service_port(), 3000);
  app::StreamClient stream_client(sc.client_stack(), sc.client_ip(),
                                  sc.connect_addr(), 3000, 4);
  stream_client.start();
  // Alternate activity with an eventual graceful close to exercise the
  // idle-connection and FIN-agreement paths mid-soak.
  sim::PeriodicTimer idler(sc.world().loop());
  int phase = 0;
  idler.start(sim::Duration::seconds(10), [&] {
    if (++phase == 6) {
      stream_client.stop();  // graceful close at t=60s; idle afterwards
      idler.stop();
    }
  });
  sc.run_for(sim::Duration::seconds(120));
  const auto& tr = sc.world().trace();
  EXPECT_EQ(tr.count("takeover"), 0u) << tr.dump();
  EXPECT_EQ(tr.count("non_ft_mode"), 0u) << tr.dump();
  EXPECT_EQ(tr.count("app_failure_detected"), 0u);
  EXPECT_EQ(tr.count("nic_failure_detected"), 0u);
  EXPECT_EQ(tr.count("hold_overflow"), 0u);
  EXPECT_EQ(tr.count("fin_released_after_delay"), 0u);
  EXPECT_FALSE(stream_client.corrupt());
  EXPECT_TRUE(sc.primary().alive());
  EXPECT_TRUE(sc.backup().alive());
}

// A view order off the wire indexes the roster: a member beyond it (or a
// repeat) must be refused and counted, never adopted — adopting {0, 7} would
// fence the receiver and later index cfg.group[7].
TEST(EndpointTest, ForgedViewOrdersAreRejectedAndCounted) {
  ScenarioConfig cfg;
  cfg.extra_backups = 1;
  Scenario sc(std::move(cfg));
  sc.run_for(sim::Duration::seconds(1));
  StTcpEndpoint* b = sc.backup_endpoint();
  const std::uint32_t epoch = b->view().epoch;
  const std::uint64_t hb_bad = b->stats().hb_malformed;
  const std::uint64_t ctl_bad = b->stats().control_malformed;

  // Both forgeries come from backup2's address, a genuine roster member.
  net::Host& forger = sc.backup_member(1);
  HeartbeatMsg hb;
  hb.role = Role::kBackup;
  hb.hb_seq = 1'000'000;
  hb.group_valid = true;
  hb.member = 2;
  hb.view_epoch = epoch + 10;
  hb.view_order = {0, 7};
  const std::uint16_t hb_port = sc.config().sttcp.hb_port;
  const std::uint16_t ctl_port = sc.config().sttcp.control_port;
  forger.udp_send(sc.backup_member_ip(1), hb_port, sc.backup_ip(), hb_port,
                  hb.serialize());
  ViewAnnounce va;
  va.epoch = epoch + 11;
  va.order = {5, 1};
  forger.udp_send(sc.backup_member_ip(1), ctl_port, sc.backup_ip(), ctl_port,
                  va.serialize());
  sc.run_for(sim::Duration::millis(50));

  EXPECT_EQ(b->view().epoch, epoch);
  EXPECT_EQ(b->mode(), StTcpEndpoint::Mode::kReplicating);
  EXPECT_EQ(b->stats().hb_malformed, hb_bad + 1);
  EXPECT_EQ(b->stats().control_malformed, ctl_bad + 1);
}

}  // namespace
}  // namespace sttcp::sttcp
