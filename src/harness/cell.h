// Cell: one Figure-2 ST-TCP pair, stampable N times into a fabric.
//
// A cell is the unit the paper demonstrates once and this harness scales:
// primary + backup hosts sharing a service-IP alias, a switch multicast
// group fanning client traffic to both taps, a serial heartbeat cable, and
// the STONITH registration — everything between "client traffic arrives at
// the switch" and "a replicated TCP answers".
//
// Construction is two-phase so a multi-cell topology can reproduce the
// single-cell harness's RNG fork order bit-exactly:
//
//   * the constructor wires L2 only (hosts, NICs, links, switch ports,
//     multicast group, power registration) — the two Link constructors are
//     the only RNG forks;
//   * start() — called by TopologyBuilder::build() after every plain host's
//     stack exists — creates the serial link, the TCP stacks, and (when
//     enabled) the ST-TCP endpoints, and starts them.
//
// ARP wiring between cells, clients and routers is the topology's job (it
// knows who shares a subnet); a Cell never touches hosts it doesn't own.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/host.h"
#include "net/link.h"
#include "net/serial_link.h"
#include "sttcp/endpoint.h"
#include "tcp/stack.h"

namespace sttcp::harness {

class Topology;

/// Per-cell knobs. Zero/empty members fall back to topology defaults
/// (bandwidth, CPU times) or index-derived values (MACs, multicast group).
struct CellConfig {
  /// Host-name prefix: "" names the members "primary"/"backup" (the classic
  /// single-cell harness); "s0" names them "s0.primary"/"s0.backup". The
  /// prefix also namespaces STONITH targets and exported metrics.
  std::string name;

  net::Ipv4Addr primary_ip{10, 0, 0, 2};
  net::Ipv4Addr backup_ip{10, 0, 0, 3};
  net::Ipv4Addr service_ip{10, 0, 0, 100};
  /// What the endpoints ping for NIC-failure arbitration: the subnet's
  /// gateway — a plain host in the flat LAN, a router port in the fabric.
  net::Ipv4Addr gateway_ip{10, 0, 0, 254};

  net::MacAddr primary_mac;      // zero -> derived from the cell index
  net::MacAddr backup_mac;       // zero -> derived from the cell index
  net::MacAddr multicast_group;  // zero -> MacAddr::multicast_group(0x57 + index)

  std::uint64_t link_bandwidth_bps = 0;         // 0 -> topology default
  /// Override for the backup's port (0 = same as the primary's). Models the
  /// prototype's tap-overload mitigation ("an additional NIC and CPU").
  std::uint64_t backup_link_bandwidth_bps = 0;

  sim::Duration primary_cpu_packet_time = sim::Duration::zero();
  sim::Duration backup_cpu_packet_time = sim::Duration::zero();

  /// Backups beyond the classic one: the roster has 2 + k members. 0 is the
  /// paper's pair (its wire protocol and RNG fork order bit-exact); k > 0
  /// builds a 1+N replication group with N = 1 + k backups. Extra backups
  /// ("backup2", "backup3", ...) take backup_ip + 1, + 2, ..., tap the same
  /// multicast group, and run IP-heartbeats only — the serial cable stays the
  /// primary/backup point-to-point RS-232 of the paper (see
  /// docs/GROUPS.md for why quorum-over-IP replaces serial at N > 2).
  int extra_backups = 0;

  /// ANDed with TopologyConfig::enable_sttcp: a disabled cell runs plain
  /// TCP on the primary (the Demo 1/3 baseline).
  bool enable_sttcp = true;
  /// Index of the STONITH controller this cell registers with. Each cell in
  /// a sharded fabric gets its own controller; the flat harness shares 0.
  int power_controller = 0;
};

class Cell {
 public:
  /// Phase 1: L2 wiring (see file comment). Forks the world RNG exactly
  /// twice (primary link, backup link).
  Cell(Topology& topo, int index, int switch_id, CellConfig cfg);
  ~Cell();
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  /// Phase 2: serial link, TCP stacks, ST-TCP endpoints. Called once by
  /// TopologyBuilder::build() after all plain-host stacks exist.
  void start();

  const CellConfig& config() const { return cfg_; }
  int index() const { return index_; }
  int switch_id() const { return switch_id_; }
  /// The shard (world index) this cell was built into; 0 in a flat harness.
  int shard() const { return shard_; }
  const std::string& name() const { return cfg_.name; }

  net::Host& primary() { return *primary_; }
  net::Host& backup() { return *backup_; }
  net::Link& primary_link() { return *primary_link_; }
  net::Link& backup_link() { return *backup_link_; }
  /// Switch port indices (the multicast fan-out set; also what
  /// emulate_old_design_tap mirrors to).
  int primary_port() const { return primary_port_; }
  int backup_port() const { return backup_port_; }

  net::SerialLink& serial() { return *serial_; }
  tcp::TcpStack& primary_stack() { return *primary_stack_; }
  tcp::TcpStack& backup_stack() { return *backup_stack_; }
  sttcp::StTcpEndpoint* primary_endpoint() { return primary_ep_.get(); }
  sttcp::StTcpEndpoint* backup_endpoint() { return backup_ep_.get(); }

  // --- replication-group addressing (i = 0 is the classic backup) ----------
  int backup_count() const { return 1 + cfg_.extra_backups; }
  net::Host& backup_host(int i);
  net::Link& backup_link(int i);
  int backup_switch_port(int i) const;
  tcp::TcpStack& backup_stack(int i);
  sttcp::StTcpEndpoint* backup_endpoint(int i);
  net::Ipv4Addr backup_ip(int i) const {
    return net::Ipv4Addr(cfg_.backup_ip.value() + static_cast<std::uint32_t>(i));
  }
  net::MacAddr backup_mac(int i) const;

  net::Ipv4Addr primary_ip() const { return cfg_.primary_ip; }
  net::Ipv4Addr backup_ip() const { return cfg_.backup_ip; }
  net::Ipv4Addr service_ip() const { return cfg_.service_ip; }
  net::MacAddr multicast_mac() const { return multicast_mac_; }
  bool sttcp_enabled() const { return sttcp_enabled_; }

  std::uint16_t service_port() const;
  /// Where a client connects: the virtual service address with ST-TCP, the
  /// primary's own address without it.
  net::SocketAddr connect_addr() const;
  /// The baseline's reconnect target (the hot backup's own address).
  net::SocketAddr backup_addr() const;

 private:
  Topology& topo_;
  sim::World* world_;  // the owning shard's world, captured at construction
  CellConfig cfg_;
  int index_;
  int switch_id_;
  int shard_;
  bool sttcp_enabled_;
  net::MacAddr multicast_mac_;

  std::unique_ptr<net::Host> primary_, backup_;
  net::Link* primary_link_ = nullptr;  // owned by the Topology
  net::Link* backup_link_ = nullptr;
  int primary_port_ = -1, backup_port_ = -1;

  std::unique_ptr<net::SerialLink> serial_;
  std::unique_ptr<tcp::TcpStack> primary_stack_, backup_stack_;
  std::unique_ptr<sttcp::StTcpEndpoint> primary_ep_, backup_ep_;

  // Extra group backups, index 0 = "backup2". Built after the classic pair
  // so a k=0 cell's RNG fork order is untouched.
  std::vector<std::unique_ptr<net::Host>> extra_hosts_;
  std::vector<net::Link*> extra_links_;  // owned by the Topology
  std::vector<int> extra_ports_;
  std::vector<net::MacAddr> extra_macs_;
  std::vector<std::unique_ptr<tcp::TcpStack>> extra_stacks_;
  std::vector<std::unique_ptr<sttcp::StTcpEndpoint>> extra_eps_;
};

}  // namespace sttcp::harness
