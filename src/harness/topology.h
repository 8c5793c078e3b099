// Composable topology: the harness's one way to build a world, from the
// paper's Figure-2 LAN to a routed, sharded fabric.
//
//   TopologyBuilder b(cfg);
//   int lan  = b.add_switch("lan");
//   b.add_host("client", {10,0,0,1}, lan, {.with_stack = true});
//   b.add_cell(lan, {});                       // a classic Figure-2 pair
//   b.add_host("gateway", {10,0,0,254}, lan);
//   auto topo = b.build();                     // ARP, routes, stacks, start
//
// build_figure2(ScenarioConfig) is that recipe for the paper's testbed
// (docs/ARCHITECTURE.md):
//
//                    ┌────────┐
//   client ──────────┤        ├────────── primary ──┐
//                    │ switch │                     │ serial (RS-232
//   gateway ─────────┤        ├────────── backup  ──┘  null-modem)
//                    └────────┘
//
// Layering:
//
//   TopologyBuilder / Topology    <- this file: switches, routers, cells,
//        |                           fault injection (harness/fault.h)
//   Cell (harness/cell.h)         <- one ST-TCP pair or group, stamped N times
//        |
//   net/ (switch, link, router, host), tcp/, sttcp/
//
// The builder constructs eagerly (hosts/links exist as soon as they are
// added, in call order — RNG fork order is therefore explicit and stable);
// build() then finalizes what needs global knowledge:
//
//   * a full static ARP mesh per switch (hosts + cell members);
//   * service-IP -> multicast-MAC ARP entries for every non-member on the
//     cell's subnet;
//   * default-gateway wiring + router-side ARP where a router port sits on
//     the subnet (including service-IP -> multicast MAC on the router's
//     egress port — how the ST-TCP tap crosses subnets, see
//     docs/ROUTING.md);
//   * TCP stacks for stack-bearing hosts, then Cell::start() per cell, in
//     creation order.
//
// ShardDirector is the front end: a consistent-hash ring mapping client
// flows onto the cells' service addresses. It is control-plane only — the
// simulated packets just use the address it returns.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/cell.h"
#include "harness/fault.h"
#include "net/host.h"
#include "net/link.h"
#include "net/router.h"
#include "net/shard_link.h"
#include "net/switch.h"
#include "obs/metrics.h"
#include "obs/pcap.h"
#include "sim/parallel.h"
#include "tcp/stack.h"

namespace sttcp::app {
class ServerApp;
}

namespace sttcp::harness {

struct TopologyConfig {
  std::uint64_t seed = 1;

  // Fabric defaults (cells and hosts may override per-link bandwidth).
  sim::Duration link_latency = sim::Duration::micros(50);
  std::uint64_t link_bandwidth_bps = 100'000'000;
  std::uint64_t serial_baud = net::SerialLink::kDefaultBaud;

  tcp::TcpConfig tcp;
  /// Template for every cell's endpoints; per-cell addressing (service,
  /// my/peer IPs, gateway, peer name) is filled in by the Cell.
  sttcp::StTcpConfig sttcp;
  bool enable_sttcp = true;
  /// Stream-logger address cells should replay from (zero = no logger; the
  /// logger host itself is wired by the owner — see build_figure2).
  net::Ipv4Addr logger_ip;

  std::ostream* log_out = nullptr;
  sim::LogLevel log_level = sim::LogLevel::kOff;

  bool enable_metrics = false;
  /// Write every frame crossing switch 0 to this libpcap file.
  std::string pcap_path;
};

/// Options for TopologyBuilder::add_host.
struct HostOptions {
  net::MacAddr mac;              // zero -> derived (0x02:00:00:00:a0:xx)
  /// Create a TcpStack for this host at build() (clients need one; passive
  /// boxes like the paper's gateway do not).
  bool with_stack = false;
  std::uint64_t link_bandwidth_bps = 0;  // 0 -> topology default
  /// Must reference a controller in the host's own shard.
  int power_controller = 0;
};

/// Options for TopologyBuilder::add_trunk (a cross-shard router cable).
struct TrunkOptions {
  /// One-way latency per direction. This is what the parallel engine's
  /// lookahead is derived from: the smallest trunk latency bounds the
  /// conservative window, so longer trunks = fewer barriers.
  sim::Duration latency = sim::Duration::micros(200);
  std::uint64_t bandwidth_bps = 0;  // 0 -> topology default
  int prefix_len = 30;              // the /30 point-to-point convention
};

class TopologyBuilder;

class Topology {
 public:
  struct HostEntry {
    std::string name;
    net::Ipv4Addr ip;
    std::unique_ptr<net::Host> host;
    std::unique_ptr<tcp::TcpStack> stack;  // null unless with_stack
    net::Link* link = nullptr;
    int switch_id = 0;
    int port = 0;  // switch port index
    bool with_stack = false;
    int shard = 0;
  };
  struct RouterPortEntry {
    int router = 0;
    int port = 0;  // port index within the router
    int switch_id = 0;
    int prefix_len = 24;
  };

  ~Topology();
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Shard 0's world — the only world of a classic unsharded topology.
  sim::World& world() { return *worlds_.front(); }
  sim::World& world(std::size_t shard) { return *worlds_.at(shard); }
  std::size_t shard_count() const { return worlds_.size(); }

  /// Advance simulated time. One shard: the classic serial run. Multiple
  /// shards: the conservative ParallelExecutor advances every shard's loop
  /// in lockstep windows of the trunk-derived lookahead, draining the
  /// cross-shard queues at each boundary — bit-identical results for any
  /// thread count (see src/sim/parallel.h).
  void run_for(sim::Duration d);
  /// Worker threads for sharded runs (clamped to the shard count); call
  /// before the first run_for, or between runs. Default 1.
  void set_threads(int n);
  int threads() const { return threads_; }
  /// The conservative window width (minimum trunk latency).
  sim::Duration lookahead() const;

  const TopologyConfig& config() const { return cfg_; }

  net::EthernetSwitch& ethernet_switch(std::size_t i = 0) { return *switches_.at(i); }
  std::size_t switch_count() const { return switches_.size(); }

  net::Router& router(std::size_t i = 0) { return *routers_.at(i); }
  std::size_t router_count() const { return routers_.size(); }
  const std::vector<RouterPortEntry>& router_ports() const { return router_ports_; }

  Cell& cell(std::size_t i = 0) { return *cells_.at(i); }
  std::size_t cell_count() const { return cells_.size(); }

  net::PowerController& power(std::size_t i = 0) { return *power_.at(i); }
  std::size_t power_count() const { return power_.size(); }

  HostEntry& host(std::size_t i) { return hosts_.at(i); }
  std::size_t host_count() const { return hosts_.size(); }
  /// nullptr when no plain host has that name (cell members don't count).
  HostEntry* host_by_name(const std::string& name);

  /// Every link in creation order — host links and cell links interleaved
  /// exactly as the builder calls ran (this order is what deterministic
  /// impairment pre-forking keys on).
  net::Link& link(std::size_t i) { return *links_.at(i); }
  const std::string& link_name(std::size_t i) const { return link_names_.at(i); }
  std::size_t link_count() const { return links_.size(); }
  int link_shard(std::size_t i) const { return link_shards_.at(i); }

  net::ShardChannel& trunk(std::size_t i) { return *trunks_.at(i).channel; }
  std::size_t trunk_count() const { return trunks_.size(); }

  // --- telemetry ----------------------------------------------------------
  obs::MetricsRegistry* metrics() { return metrics_.get(); }
  obs::PcapWriter* pcap() { return pcap_.get(); }
  /// Snapshot cumulative Stats (links, switches, routers, serials, stacks,
  /// endpoints) into the registry. A 1-cell topology gets the classic
  /// names ("net.link.primary", "net.switch.forwarded", ...); extra
  /// switches/cells/routers get name-qualified prefixes.
  void export_metrics();
  std::string metrics_json();

  // --- failure injection --------------------------------------------------
  /// Arm a fault (harness/fault.h) on shard 0's clock. Each firing stamps
  /// the "fault_injected" trace event and the kFaultInjected timeline
  /// milestone. Node targets resolve to cell 0's members and to the hosts
  /// named "client" and "gateway".
  void inject(Fault fault);
  void inject(const FaultPlan& plan);

  /// Make the node's server application addressable by application-level
  /// faults (Fault::AppHang). The caller keeps ownership; the pointer must
  /// outlive the run. At most one app per node; re-registering replaces.
  void register_server_app(Node n, app::ServerApp* app) {
    server_apps_[static_cast<std::size_t>(n)] = app;
  }
  /// The registered app for `n`, or null.
  app::ServerApp* server_app(Node n) {
    return server_apps_[static_cast<std::size_t>(n)];
  }

  /// Create a Link with topology defaults in the build-current shard's
  /// world, bind its metrics (shard 0 only), take ownership and return it.
  /// Builder/Cell plumbing — not for use after build().
  net::Link* make_link(const std::string& name, std::uint64_t bandwidth_bps);

  /// The world components under construction belong to (worlds_[build_shard_]).
  sim::World& build_world() { return *worlds_.at(static_cast<std::size_t>(build_shard_)); }
  int build_shard() const { return build_shard_; }

 private:
  friend class TopologyBuilder;
  friend class Cell;
  explicit Topology(TopologyConfig cfg);

  void ensure_executor();

  struct TrunkEntry {
    int shard_a = 0;
    int shard_b = 0;
    std::unique_ptr<net::ShardChannel> channel;
    sim::Duration latency;
  };

  TopologyConfig cfg_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;  // before worlds_: outlives them
  std::unique_ptr<obs::PcapWriter> pcap_;
  std::vector<std::unique_ptr<sim::World>> worlds_;  // [0] = the classic world
  int build_shard_ = 0;
  std::vector<std::unique_ptr<net::EthernetSwitch>> switches_;
  std::vector<std::string> switch_names_;
  std::vector<int> switch_shards_;
  std::vector<std::unique_ptr<net::PowerController>> power_;
  std::vector<int> power_shards_;
  std::vector<std::unique_ptr<net::Router>> routers_;
  std::vector<int> router_shards_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<std::string> link_names_;
  std::vector<int> link_shards_;
  std::vector<HostEntry> hosts_;
  std::vector<RouterPortEntry> router_ports_;
  std::vector<TrunkEntry> trunks_;                 // reference links_ + worlds_
  std::vector<std::unique_ptr<Cell>> cells_;       // last: reference all the above
  int threads_ = 1;
  std::unique_ptr<sim::ParallelExecutor> executor_;  // built on first sharded run
  std::array<app::ServerApp*, 6> server_apps_{};     // indexed by Node
};

/// Eager builder: components exist (and fork the world RNG) in call order.
/// build() finalizes ARP/routes/stacks and returns the Topology; the
/// builder is then spent.
class TopologyBuilder {
 public:
  explicit TopologyBuilder(TopologyConfig cfg);

  int add_switch(std::string name);

  /// Plain host (client, gateway, logger...): host + NIC + link + switch
  /// port + STONITH registration. Returns the host index.
  int add_host(std::string name, net::Ipv4Addr ip, int switch_id,
               HostOptions opt = {});

  /// Stamp one ST-TCP pair onto `switch_id`. Returns the cell index.
  int add_cell(int switch_id, CellConfig cfg = {});

  /// Extra STONITH controller (index 0 always exists). Sharded fabrics give
  /// each cell its own so a controller fault stays cell-local.
  int add_power_controller();

  int add_router(std::string name);
  /// Attach a router port to a switch (new link + switch port) and install
  /// the connected route for port_ip/prefix_len. Returns the router port
  /// index. The first router port on a switch becomes the default gateway
  /// of every host on that switch.
  int connect_router(int router_id, int switch_id, net::Ipv4Addr port_ip,
                     int prefix_len = 24, net::MacAddr mac = net::MacAddr());

  /// Open a new shard: a fresh World (derived seed) that every subsequent
  /// add_* call builds into, running on its own thread under the parallel
  /// executor. A shard is an island — its switches, hosts, cells, routers
  /// and STONITH controllers must all be created inside it (add one with
  /// add_power_controller(); controller 0 belongs to shard 0) — connected to
  /// the rest of the fabric only through add_trunk. Returns the shard index.
  int begin_shard();

  /// Point-to-point cable between two routers in *different* shards: one
  /// net::Link per side (latency/bandwidth/stats as usual) bridged by a
  /// ShardChannel (net/shard_link.h). Installs both router ports, their
  /// connected /30 routes and the peer ARP entries; remote prefixes still
  /// need add_route(..., next_hop) like any router cable. The trunk carries
  /// the fabric's lookahead: opt.latency must stay >= the executor window
  /// you want, and trunk links must never get reorder/jitter impairments.
  /// Returns {port index on a, port index on b}.
  std::pair<int, int> add_trunk(int router_a, int router_b,
                                net::Ipv4Addr ip_a, net::Ipv4Addr ip_b,
                                TrunkOptions opt = {});

  /// Peek during build (addressing, world). The reference stays valid after
  /// build() — the Topology is heap-allocated from the start.
  Topology& topology() { return *topo_; }

  std::unique_ptr<Topology> build();

 private:
  std::unique_ptr<Topology> topo_;
  int auto_host_macs_ = 0;
  bool built_ = false;
};

/// The Figure-2 recipe's knobs (build_figure2).
struct ScenarioConfig {
  std::uint64_t seed = 1;

  // Network fabric.
  sim::Duration link_latency = sim::Duration::micros(50);
  std::uint64_t link_bandwidth_bps = 100'000'000;  // Fast Ethernet, as in 2005
  /// Override for the backup's port (0 = same as link_bandwidth_bps).
  /// Models the original prototype's mitigation of the tap overload:
  /// "adding an additional NIC and CPU" on the backup (paper §3).
  std::uint64_t backup_link_bandwidth_bps = 0;
  std::uint64_t serial_baud = net::SerialLink::kDefaultBaud;

  // Stacks.
  tcp::TcpConfig tcp;

  // ST-TCP (addresses are filled in by the cell).
  sttcp::StTcpConfig sttcp;
  /// false runs plain TCP on the same LAN: the backup neither taps nor
  /// replicates, and the client addresses the primary's own IP — the Demo 1
  /// baseline ("even if a hot backup is available…") and the Demo 3
  /// overhead comparison.
  bool enable_sttcp = true;
  /// Backups beyond the classic one: 0 keeps the paper's 1+1 pair
  /// bit-exactly; k > 0 runs a 1+N replication group (N = 1 + k backups,
  /// "backup2" at 10.0.0.4, "backup3" at 10.0.0.5, IP heartbeats only).
  int extra_backups = 0;
  /// Add the §4.3 stream logger host "logger" at 10.0.0.9, tapping the
  /// cell's multicast group; the caller runs a sttcp::StreamLogger on it.
  bool enable_logger = false;

  // Host CPU models (zero = infinitely fast).
  sim::Duration primary_cpu_packet_time = sim::Duration::zero();
  sim::Duration backup_cpu_packet_time = sim::Duration::zero();

  std::ostream* log_out = nullptr;
  sim::LogLevel log_level = sim::LogLevel::kOff;

  // Telemetry (src/obs). Off by default: instruments stay unbound and every
  // component pays only a null-pointer check.
  bool enable_metrics = false;
  /// Write every LAN frame (tapped at switch ingress) to this libpcap file;
  /// empty disables the capture. Readable by Wireshark/tshark.
  std::string pcap_path;

  /// The paper's 2005 testbed: Fast Ethernet, 115.2 kbps serial heartbeat
  /// cable, 200 ms heartbeat period (the demos' default).
  static ScenarioConfig Paper2005();
  /// A modern fabric: gigabit links, 5 µs latency, 1 Mbps serial, 50 ms
  /// heartbeats — shows how failover scales when detection is cheap.
  static ScenarioConfig FastNet();
};

/// The paper's Figure-2 LAN (file comment) as a one-cell topology, built in
/// this order: host "client" (10.0.0.1, with a stack), cell 0 (primary
/// 10.0.0.2, backup 10.0.0.3, service 10.0.0.100, serial cable, STONITH),
/// host "gateway" (10.0.0.254), then with enable_logger host "logger"
/// (10.0.0.9). The order fixes every RNG fork, so a seed names one run.
std::unique_ptr<Topology> build_figure2(const ScenarioConfig& cfg);

/// Consistent-hash front end: maps a flow identifier onto one of N cells'
/// service addresses. Control-plane only — this is the piece of the "shard
/// director" a client-side load balancer would run; the simulated network
/// just uses the address it returns. Virtual nodes smooth the split; the
/// ring is deterministic in (cell set, vnodes), never in iteration order.
class ShardDirector {
 public:
  /// One ring point per (cell, vnode). 64 vnodes keeps the max/min load
  /// ratio within ~20% for small N.
  explicit ShardDirector(Topology& topo, int vnodes = 64);

  /// The cell index a flow lands on (FNV-1a of the flow id on the ring).
  std::size_t shard_for(std::uint64_t flow_id) const;
  net::SocketAddr target_for(std::uint64_t flow_id) const;
  std::size_t shard_count() const { return targets_.size(); }
  net::SocketAddr target(std::size_t shard) const { return targets_.at(shard); }

 private:
  struct Point {
    std::uint64_t hash;
    std::size_t shard;
  };
  std::vector<Point> ring_;
  std::vector<net::SocketAddr> targets_;
};

}  // namespace sttcp::harness
