// TopologyBuilder / Cell / ShardDirector coverage, and the Figure-2 recipe's
// addressing plan.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/server.h"
#include "harness/topology.h"
#include "tcp/connection.h"

namespace sttcp {
namespace {

using harness::CellConfig;
using harness::ShardDirector;
using harness::Topology;
using harness::TopologyBuilder;
using harness::TopologyConfig;

// The Figure-2 recipe's cell 0 keeps the paper's addressing plan; the
// recipe's bit-identity with the pre-recipe harness is pinned by
// DeterminismTest's literals.
TEST(TopologyFacade, CellZeroDerivesClassicAddressing) {
  auto topo = harness::build_figure2({});
  harness::Cell& c = topo->cell(0);
  EXPECT_EQ(c.primary().nic().mac(), net::MacAddr::from_u64(0x020000000002ull));
  EXPECT_EQ(c.backup().nic().mac(), net::MacAddr::from_u64(0x020000000003ull));
  EXPECT_EQ(c.multicast_mac(), net::MacAddr::multicast_group(0x57));
  EXPECT_EQ(c.service_ip(), (net::Ipv4Addr{10, 0, 0, 100}));
}

/// Four cells on one LAN, distinct subaddressing — the flat-fabric variant.
std::unique_ptr<Topology> four_cell_lan(std::uint64_t seed) {
  TopologyConfig tc;
  tc.seed = seed;
  TopologyBuilder b(tc);
  const int lan = b.add_switch("lan");
  harness::HostOptions client_opt;
  client_opt.with_stack = true;
  b.add_host("client", {10, 0, 0, 1}, lan, client_opt);
  for (int k = 0; k < 4; ++k) {
    CellConfig cc;
    cc.name = "s" + std::to_string(k);
    cc.primary_ip = {10, 0, 0, static_cast<std::uint8_t>(10 + 3 * k)};
    cc.backup_ip = {10, 0, 0, static_cast<std::uint8_t>(11 + 3 * k)};
    cc.service_ip = {10, 0, 0, static_cast<std::uint8_t>(100 + k)};
    cc.power_controller = b.add_power_controller();
    b.add_cell(lan, cc);
  }
  return b.build();
}

TEST(ShardDirectorTest, DeterministicCoversAllShardsAndMapsToCells) {
  auto topo = four_cell_lan(7);
  const ShardDirector d(*topo);
  ASSERT_EQ(d.shard_count(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(d.target(k), topo->cell(k).connect_addr());
  }

  std::set<std::size_t> hit;
  std::size_t per_shard[4] = {0, 0, 0, 0};
  for (std::uint64_t id = 0; id < 4000; ++id) {
    const std::size_t s = d.shard_for(id);
    ASSERT_LT(s, 4u);
    hit.insert(s);
    ++per_shard[s];
    EXPECT_EQ(d.target_for(id), topo->cell(s).connect_addr());
    EXPECT_EQ(d.shard_for(id), s);  // stable
  }
  EXPECT_EQ(hit.size(), 4u);
  for (const std::size_t n : per_shard) {
    // Consistent hashing with 64 vnodes: no shard should be starved or
    // receive the bulk of the keys.
    EXPECT_GT(n, 400u);
    EXPECT_LT(n, 2000u);
  }

  // Same topology shape, fresh build: the ring must not depend on pointer
  // values or iteration order.
  auto topo2 = four_cell_lan(7);
  const ShardDirector d2(*topo2);
  for (std::uint64_t id = 0; id < 4000; ++id) {
    EXPECT_EQ(d.shard_for(id), d2.shard_for(id));
  }
}

TEST(ShardDirectorTest, CellMacsAndMulticastGroupsAreDistinctPerCell) {
  auto topo = four_cell_lan(7);
  std::set<std::uint64_t> macs;
  std::set<std::string> groups;
  for (std::size_t k = 0; k < 4; ++k) {
    harness::Cell& c = topo->cell(k);
    macs.insert(c.primary().nic().mac().to_u64());
    macs.insert(c.backup().nic().mac().to_u64());
    groups.insert(c.multicast_mac().str());
  }
  EXPECT_EQ(macs.size(), 8u);
  EXPECT_EQ(groups.size(), 4u);
}

/// Client LAN and server LAN joined by one router; the cell lives across
/// the router from the client.
struct RoutedWorld {
  explicit RoutedWorld(std::uint64_t seed) {
    TopologyConfig tc;
    tc.seed = seed;
    TopologyBuilder b(tc);
    const int lan0 = b.add_switch("clientlan");
    const int lan1 = b.add_switch("serverlan");
    harness::HostOptions client_opt;
    client_opt.with_stack = true;
    b.add_host("client", {10, 0, 0, 1}, lan0, client_opt);
    CellConfig cc;
    cc.primary_ip = {10, 1, 0, 2};
    cc.backup_ip = {10, 1, 0, 3};
    cc.service_ip = {10, 1, 0, 100};
    cc.gateway_ip = {10, 1, 0, 254};  // the router's serverlan port
    b.add_cell(lan1, cc);
    const int r = b.add_router("core");
    b.connect_router(r, lan0, {10, 0, 0, 254});
    b.connect_router(r, lan1, {10, 1, 0, 254});
    topo = b.build();
  }

  /// Download `size` bytes from the service; returns bytes the client read.
  std::uint64_t received = 0;
  bool reset = false;
  void download(std::uint64_t size) {
    harness::Cell& cell = topo->cell(0);
    const std::uint16_t port = cell.service_port();
    servers.emplace_back(
        std::make_unique<app::FileServer>(cell.primary_stack(), port, size));
    servers.emplace_back(
        std::make_unique<app::FileServer>(cell.backup_stack(), port, size));
    tcp::TcpConnection::Callbacks cb;
    cb.on_readable = [this] { received += conn->read(1 << 20).size(); };
    cb.on_peer_closed = [this] { conn->close(); };
    cb.on_closed = [this](tcp::CloseReason r) {
      if (r == tcp::CloseReason::kReset) reset = true;
    };
    conn = &topo->host(0).stack->connect({10, 0, 0, 1}, cell.connect_addr(),
                                         std::move(cb));
  }

  std::unique_ptr<Topology> topo;
  std::vector<std::unique_ptr<app::FileServer>> servers;
  tcp::TcpConnection* conn = nullptr;
};

TEST(RoutedTopology, RouterDeathStallsClientsButDoesNotFailOver) {
  RoutedWorld w(11);
  // 10 MB ≈ 840 ms of wire time at 100 Mbps, so the 300 ms crash lands
  // mid-transfer with the stream still in flight.
  w.download(10'000'000);
  // Kill the router mid-transfer, revive it a second later: the client
  // stalls and retransmits, but the pair's heartbeats (same LAN + serial)
  // never cross the router — takeover must NOT trigger.
  w.topo->world().loop().schedule_after(sim::Duration::millis(300),
                                        [&w] { w.topo->router().crash(); });
  w.topo->world().loop().schedule_after(sim::Duration::millis(1300),
                                        [&w] { w.topo->router().restore(); });
  w.topo->run_for(sim::Duration::seconds(30));

  EXPECT_EQ(w.received, 10'000'000u);
  EXPECT_FALSE(w.reset);
  EXPECT_EQ(w.topo->cell(0).primary_endpoint()->stats().takeovers, 0u);
  EXPECT_EQ(w.topo->cell(0).backup_endpoint()->stats().takeovers, 0u);
  EXPECT_EQ(w.topo->world().trace().count("router_crash"), 1u);
  EXPECT_GT(w.topo->router().stats().dropped_down, 0u);
}

TEST(RoutedTopology, InterSubnetPartitionIsMaskedFromThePair) {
  RoutedWorld w(12);
  // Big enough that the 300 ms cut hits a stream still in flight.
  w.download(10'000'000);
  // Sever the client-side router uplink (an inter-subnet partition): the
  // server LAN — heartbeats, serial, STONITH — is untouched, so the pair
  // must not react at all while the client retransmits into the void.
  net::Link& uplink = w.topo->link(3);  // client, primary, backup, core.p0
  w.topo->world().loop().schedule_after(sim::Duration::millis(300),
                                        [&uplink] { uplink.fail(); });
  w.topo->world().loop().schedule_after(sim::Duration::millis(1500),
                                        [&uplink] { uplink.heal(); });
  w.topo->run_for(sim::Duration::seconds(30));

  EXPECT_EQ(w.received, 10'000'000u);
  EXPECT_FALSE(w.reset);
  EXPECT_EQ(w.topo->cell(0).primary_endpoint()->stats().takeovers, 0u);
  EXPECT_EQ(w.topo->cell(0).backup_endpoint()->stats().takeovers, 0u);
}

/// Client in shard 0, cell in shard 1, routers joined by one trunk — the
/// minimal fabric whose every data frame crosses the shard boundary.
struct ShardedWorld {
  explicit ShardedWorld(std::uint64_t seed,
                        sim::Duration trunk_latency = sim::Duration::micros(300)) {
    TopologyConfig tc;
    tc.seed = seed;
    TopologyBuilder b(tc);
    const int lan0 = b.add_switch("clientlan");
    harness::HostOptions client_opt;
    client_opt.with_stack = true;
    b.add_host("client", {10, 0, 0, 1}, lan0, client_opt);
    const int r0 = b.add_router("edge");
    b.connect_router(r0, lan0, {10, 0, 0, 254});

    b.begin_shard();
    const int lan1 = b.add_switch("serverlan");
    CellConfig cc;
    cc.primary_ip = {10, 1, 0, 2};
    cc.backup_ip = {10, 1, 0, 3};
    cc.service_ip = {10, 1, 0, 100};
    cc.gateway_ip = {10, 1, 0, 254};
    cc.power_controller = b.add_power_controller();
    b.add_cell(lan1, cc);
    const int r1 = b.add_router("core");
    b.connect_router(r1, lan1, {10, 1, 0, 254});

    harness::TrunkOptions trunk;
    trunk.latency = trunk_latency;
    const auto [p0, p1] =
        b.add_trunk(r0, r1, {10, 200, 0, 1}, {10, 200, 0, 2}, trunk);
    topo = b.build();
    topo->router(0).add_route({{10, 1, 0, 0}, 24, p0, {10, 200, 0, 2}});
    topo->router(1).add_route({{10, 0, 0, 0}, 24, p1, {10, 200, 0, 1}});
  }

  std::uint64_t received = 0;
  bool reset = false;
  void download(std::uint64_t size) {
    harness::Cell& cell = topo->cell(0);
    const std::uint16_t port = cell.service_port();
    servers.emplace_back(
        std::make_unique<app::FileServer>(cell.primary_stack(), port, size));
    servers.emplace_back(
        std::make_unique<app::FileServer>(cell.backup_stack(), port, size));
    tcp::TcpConnection::Callbacks cb;
    cb.on_readable = [this] { received += conn->read(1 << 20).size(); };
    cb.on_peer_closed = [this] { conn->close(); };
    cb.on_closed = [this](tcp::CloseReason r) {
      if (r == tcp::CloseReason::kReset) reset = true;
    };
    conn = &topo->host(0).stack->connect({10, 0, 0, 1}, cell.connect_addr(),
                                         std::move(cb));
  }

  std::unique_ptr<Topology> topo;
  std::vector<std::unique_ptr<app::FileServer>> servers;
  tcp::TcpConnection* conn = nullptr;
};

TEST(ShardedTopology, CrossShardDownloadCompletes) {
  ShardedWorld w(21);
  ASSERT_EQ(w.topo->shard_count(), 2u);
  w.download(2'000'000);
  w.topo->run_for(sim::Duration::seconds(10));
  EXPECT_EQ(w.received, 2'000'000u);
  EXPECT_FALSE(w.reset);
  // Every data frame crossed the trunk, in both directions.
  EXPECT_GT(w.topo->router(0).stats().forwarded, 500u);
  EXPECT_GT(w.topo->router(1).stats().forwarded, 500u);
}

TEST(ShardedTopology, CrossShardDownloadMatchesAcrossThreadCounts) {
  // The same sharded download must finish with identical byte counts and
  // trunk-forward totals whether the two shards share one worker or not.
  std::uint64_t fwd[2][2];
  for (const int threads : {1, 2}) {
    ShardedWorld w(22);
    w.topo->set_threads(threads);
    w.download(1'000'000);
    w.topo->run_for(sim::Duration::seconds(10));
    EXPECT_EQ(w.received, 1'000'000u) << threads;
    EXPECT_FALSE(w.reset) << threads;
    fwd[threads - 1][0] = w.topo->router(0).stats().forwarded;
    fwd[threads - 1][1] = w.topo->router(1).stats().forwarded;
  }
  EXPECT_EQ(fwd[0][0], fwd[1][0]);
  EXPECT_EQ(fwd[0][1], fwd[1][1]);
}

TEST(ShardedTopology, LookaheadIsTheMinimumTrunkLatency) {
  ShardedWorld w(23, sim::Duration::micros(450));
  EXPECT_EQ(w.topo->lookahead(), sim::Duration::micros(450));
  EXPECT_EQ(w.topo->trunk_count(), 1u);
}

TEST(ShardedTopology, SameShardTrunkIsRejected) {
  TopologyConfig tc;
  TopologyBuilder b(tc);
  const int lan = b.add_switch("lan");
  (void)lan;
  const int r0 = b.add_router("a");
  const int r1 = b.add_router("b");
  EXPECT_THROW(b.add_trunk(r0, r1, {10, 200, 0, 1}, {10, 200, 0, 2}),
               std::logic_error);
}

TEST(RoutedTopology, LinkOrderMatchesBuilderCallOrder) {
  RoutedWorld w(13);
  // Impairment pre-forking and metrics naming key on this order.
  EXPECT_EQ(w.topo->link_name(0), "client");
  EXPECT_EQ(w.topo->link_name(1), "primary");
  EXPECT_EQ(w.topo->link_name(2), "backup");
  EXPECT_EQ(w.topo->link_name(3), "core.p0");
  EXPECT_EQ(w.topo->link_name(4), "core.p1");
  EXPECT_EQ(w.topo->link_count(), 5u);
}

}  // namespace
}  // namespace sttcp
