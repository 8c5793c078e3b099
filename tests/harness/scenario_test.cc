// Topology invariants of the Figure-2 scenario: the multicast tap, the
// service alias, baseline addressing, gateway reachability, failure
// injection plumbing.
#include "harness/topology.h"

#include <gtest/gtest.h>

#include "app/client.h"
#include "app/server.h"

namespace sttcp::harness {
namespace {

TEST(ScenarioTest, AddressingMatchesFigure2) {
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  EXPECT_TRUE(cell.primary().has_ip(cell.service_ip()));
  EXPECT_TRUE(cell.backup().has_ip(cell.service_ip()));
  EXPECT_FALSE(topo->host_by_name("client")->host->has_ip(cell.service_ip()));
  EXPECT_EQ(cell.connect_addr().ip, cell.service_ip());
  ScenarioConfig plain;
  plain.enable_sttcp = false;
  auto topo2 = build_figure2(plain);
  EXPECT_EQ(topo2->cell().connect_addr().ip, topo2->cell().primary_ip());
  EXPECT_EQ(topo2->cell().primary_endpoint(), nullptr);
  EXPECT_EQ(topo2->cell().backup_endpoint(), nullptr);
}

TEST(ScenarioTest, MulticastTapDeliversClientTrafficToBothServers) {
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  // Raw UDP datagram from the client to the service IP: both servers'
  // hosts must see it (the ST-TCP tap mechanism at L2).
  int primary_got = 0;
  int backup_got = 0;
  cell.primary().udp_bind(9999, [&](net::Ipv4Addr, std::uint16_t, net::BytesView) {
    ++primary_got;
  });
  cell.backup().udp_bind(9999, [&](net::Ipv4Addr, std::uint16_t, net::BytesView) {
    ++backup_got;
  });
  client_host.host->udp_send(client_host.ip, 1234, cell.service_ip(), 9999,
                             net::to_bytes("tap me"));
  topo->run_for(sim::Duration::millis(10));
  EXPECT_EQ(primary_got, 1);
  EXPECT_EQ(backup_got, 1);
}

TEST(ScenarioTest, ServerRepliesReachOnlyTheClient) {
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  int client_got = 0;
  int backup_got = 0;
  client_host.host->udp_bind(8888, [&](net::Ipv4Addr src, std::uint16_t, net::BytesView) {
    EXPECT_EQ(src, cell.service_ip());
    ++client_got;
  });
  cell.backup().udp_bind(8888, [&](net::Ipv4Addr, std::uint16_t, net::BytesView) {
    ++backup_got;
  });
  // The primary answers FROM the service IP to the client's unicast MAC.
  cell.primary().udp_send(cell.service_ip(), 8888, client_host.ip, 8888,
                          net::to_bytes("reply"));
  topo->run_for(sim::Duration::millis(10));
  EXPECT_EQ(client_got, 1);
  EXPECT_EQ(backup_got, 0);  // new design: no server->client tap
}

TEST(ScenarioTest, GatewayAnswersPingsFromBothServers) {
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  int ok = 0;
  const net::Ipv4Addr gateway = topo->host_by_name("gateway")->ip;
  cell.primary().ping(cell.primary_ip(), gateway, sim::Duration::seconds(1),
                      [&](bool success, sim::Duration) { ok += success; });
  cell.backup().ping(cell.backup_ip(), gateway, sim::Duration::seconds(1),
                     [&](bool success, sim::Duration) { ok += success; });
  topo->run_for(sim::Duration::millis(100));
  EXPECT_EQ(ok, 2);
}

TEST(ScenarioTest, FailureInjectionHooksFire) {
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  topo->inject(Fault::NicFailure(Node::kPrimary).at(sim::Duration::millis(10)));
  topo->inject(Fault::SerialCut().at(sim::Duration::millis(20)));
  topo->inject(Fault::FrameLoss(Node::kBackup, 5).at(sim::Duration::millis(30)));
  topo->inject(Fault::Crash(Node::kBackup).at(sim::Duration::millis(40)));
  topo->run_for(sim::Duration::millis(100));
  EXPECT_TRUE(cell.primary().nic().failed());
  EXPECT_TRUE(cell.serial().failed());
  EXPECT_FALSE(cell.backup().alive());
  const auto& tr = topo->world().trace();
  EXPECT_EQ(tr.count("primary", "nic_failed"), 1u);
  EXPECT_EQ(tr.count("serial", "serial_failed"), 1u);
  EXPECT_EQ(tr.count("backup", "frame_drop_burst"), 1u);
  EXPECT_EQ(tr.count("backup", "host_crash"), 1u);
}

TEST(ScenarioTest, DeterministicAcrossRuns) {
  // Two worlds with the same seed produce byte-identical traces.
  auto run_once = [](std::uint64_t seed) {
    ScenarioConfig cfg;
    cfg.seed = seed;
    auto topo = build_figure2(cfg);
    Cell& cell = topo->cell();
    Topology::HostEntry& client_host = *topo->host_by_name("client");
    app::FileServer p(cell.primary_stack(), cell.service_port(), 1'000'000);
    app::FileServer b(cell.backup_stack(), cell.service_port(), 1'000'000);
    app::DownloadClient::Options opt;
    opt.expected_bytes = 1'000'000;
    app::DownloadClient c(*client_host.stack, client_host.ip, {cell.connect_addr()},
                          opt);
    c.start();
    topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(40)));
    topo->run_for(sim::Duration::seconds(20));
    return topo->world().trace().dump() + (c.complete() ? "C" : "I") +
           std::to_string(c.max_stall().ns());
  };
  EXPECT_EQ(run_once(7), run_once(7));
  // (Different seeds change the ISNs but not the trace-visible timing, so
  // no inequality assertion: determinism is the property under test.)
}

TEST(ScenarioTest, SlowBackupCpuConfigured) {
  ScenarioConfig cfg;
  cfg.backup_cpu_packet_time = sim::Duration::micros(50);
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  // Functional smoke: a transfer still completes with a slow backup.
  app::FileServer p(cell.primary_stack(), cell.service_port(), 2'000'000);
  app::FileServer b(cell.backup_stack(), cell.service_port(), 2'000'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 2'000'000;
  app::DownloadClient c(*client_host.stack, client_host.ip, {cell.connect_addr()},
                        opt);
  c.start();
  topo->run_for(sim::Duration::seconds(20));
  EXPECT_TRUE(c.complete());
  EXPECT_FALSE(c.corrupt());
}

}  // namespace
}  // namespace sttcp::harness
