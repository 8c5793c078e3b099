// Endpoint-level behaviours not covered by the scenario integration tests:
// heartbeat bookkeeping, channel liveness, announce/confirm handshake,
// FIN timing, Demo-2's failover-time shape, and Demo-3's overhead shape.
#include "sttcp/endpoint.h"

#include <gtest/gtest.h>

#include <memory>

#include "app/client.h"
#include "app/server.h"
#include "harness/topology.h"

namespace sttcp::sttcp {
namespace {
using harness::Cell;
using harness::ScenarioConfig;
using harness::Topology;
using harness::build_figure2;

TEST(EndpointTest, HeartbeatsFlowOnBothChannels) {
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  topo->run_for(sim::Duration::seconds(2));
  const auto& p = cell.primary_endpoint()->stats();
  const auto& b = cell.backup_endpoint()->stats();
  // ~5 HB/s for 2s on each side, received on both channels.
  EXPECT_GE(p.hb_sent, 9u);
  EXPECT_GE(p.hb_received_ip, 9u);
  EXPECT_GE(p.hb_received_serial, 9u);
  EXPECT_GE(b.hb_received_ip, 9u);
  EXPECT_GE(b.hb_received_serial, 9u);
  EXPECT_TRUE(cell.primary_endpoint()->ip_channel_alive());
  EXPECT_TRUE(cell.primary_endpoint()->serial_channel_alive());
}

TEST(EndpointTest, NoConnectionsMeansEmptyHeartbeat) {
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  topo->run_for(sim::Duration::seconds(1));
  EXPECT_EQ(cell.primary_endpoint()->replicated_connections(), 0u);
  EXPECT_EQ(cell.backup_endpoint()->replicated_connections(), 0u);
}

TEST(EndpointTest, ClosedConnectionsAreGarbageCollected) {
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 100'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 100'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 100'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->run_for(sim::Duration::seconds(2));
  ASSERT_TRUE(client.complete());
  EXPECT_EQ(cell.primary_endpoint()->replicated_connections(), 1u);
  // After the close linger, the replication records disappear.
  topo->run_for(sim::Duration::seconds(10));
  EXPECT_EQ(cell.primary_endpoint()->replicated_connections(), 0u);
  EXPECT_EQ(cell.backup_endpoint()->replicated_connections(), 0u);
  // And the TCP connections themselves are gone (TIME_WAIT elapsed).
  EXPECT_EQ(cell.primary_stack().connection_count(), 0u);
  EXPECT_EQ(client_host.stack->connection_count(), 0u);
}

TEST(EndpointTest, SequentialConnectionsEachReplicated) {
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 50'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 50'000);
  for (int i = 0; i < 5; ++i) {
    app::DownloadClient::Options opt;
    opt.expected_bytes = 50'000;
    app::DownloadClient client(*client_host.stack, client_host.ip,
                               {cell.connect_addr()}, opt);
    client.start();
    topo->run_for(sim::Duration::seconds(1));
    EXPECT_TRUE(client.complete()) << i;
    EXPECT_FALSE(client.corrupt()) << i;
  }
  EXPECT_EQ(topo->world().trace().count("backup", "replica_created"), 5u);
  EXPECT_EQ(topo->world().trace().count("takeover"), 0u);
}

TEST(EndpointTest, ConcurrentConnectionsAllReplicatedAndFailedOver) {
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 3'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 3'000'000);
  std::vector<std::unique_ptr<app::DownloadClient>> clients;
  for (int i = 0; i < 8; ++i) {
    app::DownloadClient::Options opt;
    opt.expected_bytes = 3'000'000;
    clients.push_back(std::make_unique<app::DownloadClient>(
        *client_host.stack, client_host.ip,
        std::vector<net::SocketAddr>{cell.connect_addr()}, opt));
    clients.back()->start();
  }
  topo->inject(
      harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(400)));
  topo->run_for(sim::Duration::seconds(60));
  EXPECT_EQ(topo->world().trace().count("backup", "takeover"), 1u);
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
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 200'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 200'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 200'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->run_for(sim::Duration::seconds(3));
  ASSERT_TRUE(client.complete());
  const auto& tr = topo->world().trace();
  EXPECT_EQ(tr.count("backup", "replica_inferred"), 1u);
  EXPECT_EQ(tr.count("backup", "replica_id_remapped"), 1u);
  EXPECT_TRUE(tr.strictly_before("replica_inferred", "replica_id_remapped"));
  // Exactly one replica connection existed (no duplicate from the announce).
  EXPECT_EQ(cell.backup_stack().stats().replicas_created, 1u);
}

TEST(EndpointTest, InferredReplicaSurvivesPrimaryDeathBeforeAnnounce) {
  // The case that motivates inference: the primary accepts and answers the
  // client but dies before any announcement reaches the backup. The
  // inferred replica still owns the connection after takeover.
  ScenarioConfig cfg;
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 10'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 10'000'000);
  // Eat ALL primary->backup announce datagrams: UDP heartbeats on the IP
  // path die, serial heartbeats (periodic only) still flow but announces are
  // carried there too — so instead crash the primary right after the
  // handshake completes, before the first serial heartbeat with the record.
  app::DownloadClient::Options opt;
  opt.expected_bytes = 10'000'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  // The immediate (IP-only) announce is dropped; the next serial HB would
  // be at 200 ms — the primary dies at 50 ms. Drop exactly the primary's
  // UDP frames (heartbeats/control), leaving its TCP traffic untouched:
  // the IPv4 protocol byte sits at Ethernet(14) + 9.
  cell.primary_link().set_drop_filter(
      [](const net::Frame& f) { return f.size() > 23 && f[23] == 17; });
  topo->inject(
      harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(50)));
  topo->run_for(sim::Duration::seconds(60));
  EXPECT_TRUE(client.complete());
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  EXPECT_GE(topo->world().trace().count("backup", "replica_inferred"), 1u);
  EXPECT_EQ(topo->world().trace().count("backup", "takeover"), 1u);
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
    topo->inject(
      harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(700)));
    topo->run_for(sim::Duration::seconds(120));
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
    auto topo = build_figure2(cfg);
    Cell& cell = topo->cell();
    Topology::HostEntry& client_host = *topo->host_by_name("client");
    app::FileServer p_app(cell.primary_stack(), cell.service_port(), 20'000'000);
    app::FileServer b_app(cell.backup_stack(), cell.service_port(), 20'000'000);
    app::DownloadClient::Options opt;
    opt.expected_bytes = 20'000'000;
    app::DownloadClient client(*client_host.stack, client_host.ip,
                               {cell.connect_addr()}, opt);
    client.start();
    topo->run_for(sim::Duration::seconds(60));
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
    topo->inject(
      harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(700)));
    topo->run_for(sim::Duration::seconds(120));
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
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  topo->power().set_functional(false);
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 20'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 20'000'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 20'000'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->inject(
      harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(400)));
  topo->run_for(sim::Duration::seconds(60));
  EXPECT_EQ(topo->world().trace().count("backup", "takeover"), 1u);
  EXPECT_TRUE(client.complete());
}

TEST(EndpointTest, NormalCloseCompletesWithinOneHeartbeat) {
  // §4.2.2: "during normal operation — when neither the primary nor the
  // backup has failed — the FIN is not delayed by MaxDelayFIN." The primary
  // waits at most ~a heartbeat for the backup's FIN notice.
  ScenarioConfig cfg;
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(60);
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 100'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 100'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 100'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->run_for(sim::Duration::seconds(5));
  ASSERT_TRUE(client.complete());
  // The whole transfer including close stayed far below MaxDelayFIN.
  EXPECT_LT((client.completed_at() - client.started_at()).to_seconds(), 1.0);
  EXPECT_EQ(topo->world().trace().count("fin_released_after_delay"), 0u);
  // The client heard the server FIN (peer_closed drove completion).
  EXPECT_EQ(topo->world().trace().count("primary", "fin_agreed"), 1u);
}

TEST(EndpointTest, ManyConnectionsHeartbeatStaysUnderSerialBudget) {
  // §3 sizing: at 200 ms HB, 100 connections consume ~80 kbps of the
  // 115.2 kbps serial link. Verify the serial channel still delivers
  // heartbeats with 100 live connections.
  ScenarioConfig cfg;
  auto topo = build_figure2(cfg);
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
  topo->run_for(sim::Duration::seconds(5));
  EXPECT_EQ(cell.primary_endpoint()->replicated_connections(), 100u);
  EXPECT_TRUE(cell.primary_endpoint()->serial_channel_alive());
  EXPECT_TRUE(cell.backup_endpoint()->serial_channel_alive());
  EXPECT_EQ(topo->world().trace().count("takeover"), 0u);
  EXPECT_EQ(topo->world().trace().count("non_ft_mode"), 0u);
  // Serial link utilisation stays under capacity (queue drains).
  EXPECT_LT(cell.serial().queue_delay(0), sim::Duration::millis(200));
}

TEST(EndpointTest, LongFailureFreeSoakNeverMisfires) {
  // Two minutes of mixed traffic with no injected failure: the detectors
  // (lag, FIN arbitration, NIC arbitration, hold buffer) must stay silent.
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::StreamServer p_stream(cell.primary_stack(), cell.service_port(), 3000);
  app::StreamServer b_stream(cell.backup_stack(), cell.service_port(), 3000);
  app::StreamClient stream_client(*client_host.stack, client_host.ip,
                                  cell.connect_addr(), 3000, 4);
  stream_client.start();
  // Alternate activity with an eventual graceful close to exercise the
  // idle-connection and FIN-agreement paths mid-soak.
  sim::PeriodicTimer idler(topo->world().loop());
  int phase = 0;
  idler.start(sim::Duration::seconds(10), [&] {
    if (++phase == 6) {
      stream_client.stop();  // graceful close at t=60s; idle afterwards
      idler.stop();
    }
  });
  topo->run_for(sim::Duration::seconds(120));
  const auto& tr = topo->world().trace();
  EXPECT_EQ(tr.count("takeover"), 0u) << tr.dump();
  EXPECT_EQ(tr.count("non_ft_mode"), 0u) << tr.dump();
  EXPECT_EQ(tr.count("app_failure_detected"), 0u);
  EXPECT_EQ(tr.count("nic_failure_detected"), 0u);
  EXPECT_EQ(tr.count("hold_overflow"), 0u);
  EXPECT_EQ(tr.count("fin_released_after_delay"), 0u);
  EXPECT_FALSE(stream_client.corrupt());
  EXPECT_TRUE(cell.primary().alive());
  EXPECT_TRUE(cell.backup().alive());
}

// A promoted leader may reuse an id its dead predecessor announced to a
// follower for a different connection. The follower must match the announce
// by its tuple: the id's old holder keeps its state under a fresh id, and
// the announced connection gets its own replica.
TEST(EndpointTest, AnnounceMatchesByTupleNotByReusedId) {
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 50'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 50'000'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 50'000'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->run_for(sim::Duration::millis(500));
  StTcpEndpoint* b = cell.backup_endpoint();
  const auto& tr = topo->world().trace();
  ASSERT_EQ(b->replicated_connections(), 1u);
  ASSERT_EQ(tr.count("backup", "replica_created"), 1u);

  // The leader's announce for another client connection, labelled with the
  // id the live download already holds (1, the first primary-range id).
  HbRecord rec;
  rec.repl_id = 1;
  rec.announce = true;
  rec.established = true;
  rec.client_ip = client_host.ip;
  rec.client_port = 40000;
  rec.local_port = cell.service_port();
  rec.iss = 1000;
  rec.irs = 2000;
  HeartbeatMsg hb;
  hb.role = Role::kPrimary;
  hb.hb_seq = 1'000'000;
  hb.records.push_back(rec);
  const std::uint16_t hb_port = topo->config().sttcp.hb_port;
  cell.primary().udp_send(cell.primary_ip(), hb_port, cell.backup_ip(), hb_port,
                          hb.serialize());
  // The primary's uplink is busy with the download: allow for its queue.
  topo->run_for(sim::Duration::millis(50));

  EXPECT_EQ(b->replicated_connections(), 2u);
  EXPECT_EQ(tr.count("backup", "replica_created"), 2u) << tr.dump();
  EXPECT_EQ(tr.count("backup", "replica_id_displaced"), 1u) << tr.dump();
}

// A leader compares each follower's counters with its own in that follower's
// mirror. Two followers report diverging app_written values, the lagging one
// always first: the conviction names the member that lags, never the member
// whose record arrived last (a shared copy holding the maximum over members
// would see no lag at all).
TEST(EndpointTest, LeaderConvictsTheFollowerWhoseMirrorLags) {
  ScenarioConfig cfg;
  cfg.extra_backups = 1;
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 50'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 50'000'000);
  app::FileServer b2_app(cell.backup_stack(1), cell.service_port(), 50'000'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 50'000'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->run_for(sim::Duration::millis(300));
  // From here on only forged records speak for the followers.
  topo->inject(harness::Fault::Crash(harness::Node::kBackup));
  topo->inject(harness::Fault::Crash(harness::Node::kBackup2));
  tcp::TcpConnection* served = nullptr;
  cell.primary_stack().for_each([&](tcp::TcpConnection& c) {
    if (c.tuple().local.port == cell.service_port()) served = &c;
  });
  ASSERT_NE(served, nullptr);

  StTcpEndpoint* p = cell.primary_endpoint();
  const auto record = [&](std::uint64_t written) {
    HbRecord rec;
    rec.repl_id = 1;  // the first primary-range id: the download
    rec.bytes_received = served->bytes_received();
    rec.acked_by_peer = served->bytes_acked_by_peer();
    rec.app_written = written;
    rec.app_read = served->app_bytes_read();
    return rec;
  };
  const std::uint64_t frozen = served->app_bytes_written();
  const std::uint16_t hb_port = topo->config().sttcp.hb_port;
  const auto& tr = topo->world().trace();
  for (std::uint32_t k = 0; k < 30 && tr.count("member_convicted") == 0; ++k) {
    // member 1 ("backup") lags; member 2 ("backup2") keeps up and speaks last.
    for (const std::uint8_t member : {1, 2}) {
      HeartbeatMsg hb;
      hb.role = Role::kBackup;
      hb.hb_seq = 1'000'000 + k;
      hb.group_valid = true;
      hb.member = member;
      hb.view_epoch = p->view().epoch;
      hb.view_order = p->view().order;
      hb.records.push_back(record(member == 1 ? frozen : served->app_bytes_written()));
      client_host.host->udp_send(client_host.ip, hb_port, cell.primary_ip(), hb_port,
                                 hb.serialize());
    }
    topo->run_for(sim::Duration::millis(100));
  }

  const sim::TraceEntry* convicted = tr.first("member_convicted");
  ASSERT_NE(convicted, nullptr) << tr.dump();
  EXPECT_EQ(convicted->component, "primary");
  EXPECT_EQ(convicted->detail, "backup");
  const sim::TraceEntry* criterion = tr.first("peer_convicted");
  ASSERT_NE(criterion, nullptr);
  EXPECT_EQ(criterion->detail, "app_failure_detected");
}

// A view order off the wire indexes the roster: a member beyond it (or a
// repeat) must be refused and counted, never adopted — adopting {0, 7} would
// fence the receiver and later index cfg.group[7].
TEST(EndpointTest, ForgedViewOrdersAreRejectedAndCounted) {
  ScenarioConfig cfg;
  cfg.extra_backups = 1;
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  topo->run_for(sim::Duration::seconds(1));
  StTcpEndpoint* b = cell.backup_endpoint();
  const std::uint32_t epoch = b->view().epoch;
  const std::uint64_t hb_bad = b->stats().hb_malformed;
  const std::uint64_t ctl_bad = b->stats().control_malformed;

  // Both forgeries come from backup2's address, a genuine roster member.
  net::Host& forger = cell.backup_host(1);
  HeartbeatMsg hb;
  hb.role = Role::kBackup;
  hb.hb_seq = 1'000'000;
  hb.group_valid = true;
  hb.member = 2;
  hb.view_epoch = epoch + 10;
  hb.view_order = {0, 7};
  const std::uint16_t hb_port = topo->config().sttcp.hb_port;
  const std::uint16_t ctl_port = topo->config().sttcp.control_port;
  forger.udp_send(cell.backup_ip(1), hb_port, cell.backup_ip(), hb_port,
                  hb.serialize());
  ViewAnnounce va;
  va.epoch = epoch + 11;
  va.order = {5, 1};
  forger.udp_send(cell.backup_ip(1), ctl_port, cell.backup_ip(), ctl_port,
                  va.serialize());
  topo->run_for(sim::Duration::millis(50));

  EXPECT_EQ(b->view().epoch, epoch);
  EXPECT_EQ(b->mode(), StTcpEndpoint::Mode::kReplicating);
  EXPECT_EQ(b->stats().hb_malformed, hb_bad + 1);
  EXPECT_EQ(b->stats().control_malformed, ctl_bad + 1);
}

}  // namespace
}  // namespace sttcp::sttcp
