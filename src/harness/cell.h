// Cell: one Figure-2 ST-TCP pair (or 1+N group), stampable N times into a
// fabric.
//
// A cell is the unit the paper demonstrates once and this harness scales:
// primary + backup hosts sharing a service-IP alias, a switch multicast
// group fanning client traffic to every tap, a serial heartbeat cable, and
// the STONITH registration — everything between "client traffic arrives at
// the switch" and "a replicated TCP answers". Its members are one list:
// member 0 is the primary, member i + 1 is backup i.
//
// Construction is two-phase so a multi-cell topology can reproduce the
// single-cell harness's RNG fork order bit-exactly:
//
//   * the constructor wires L2 only (hosts, NICs, links, switch ports,
//     multicast group, power registration), member by member — each
//     member's Link constructor is the only RNG fork;
//   * start() — called by TopologyBuilder::build() after every plain host's
//     stack exists — creates the serial link, the TCP stacks, and (when
//     enabled) the ST-TCP endpoints, and starts them, each phase in member
//     order.
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
  /// Phase 1: L2 wiring (see file comment). Forks the world RNG once per
  /// member (its link).
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

  net::Host& primary() { return *members_[0].host; }
  net::Host& backup() { return backup_host(0); }
  net::Link& primary_link() { return *members_[0].link; }
  net::Link& backup_link() { return backup_link(0); }
  /// Switch port indices (the multicast fan-out set).
  int primary_port() const { return members_[0].port; }
  int backup_port() const { return backup_switch_port(0); }

  net::SerialLink& serial() { return *serial_; }
  tcp::TcpStack& primary_stack() { return *members_[0].stack; }
  tcp::TcpStack& backup_stack() { return backup_stack(0); }
  sttcp::StTcpEndpoint* primary_endpoint() { return members_[0].ep.get(); }
  sttcp::StTcpEndpoint* backup_endpoint() { return backup_endpoint(0); }

  // --- replication-group addressing (i = 0 is the classic backup) ----------
  int backup_count() const { return static_cast<int>(members_.size()) - 1; }
  net::Host& backup_host(int i) { return *backup_member(i).host; }
  net::Link& backup_link(int i) { return *backup_member(i).link; }
  int backup_switch_port(int i) const { return backup_member(i).port; }
  tcp::TcpStack& backup_stack(int i) { return *backup_member(i).stack; }
  /// Null when ST-TCP is disabled.
  sttcp::StTcpEndpoint* backup_endpoint(int i) { return backup_member(i).ep.get(); }
  net::Ipv4Addr backup_ip(int i) const {
    return net::Ipv4Addr(cfg_.backup_ip.value() + static_cast<std::uint32_t>(i));
  }
  net::MacAddr backup_mac(int i) const { return backup_member(i).mac; }

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

  // Fields in build order, so a member tears down endpoint, stack, host.
  struct Member {
    std::unique_ptr<net::Host> host;
    net::MacAddr mac;
    net::Link* link = nullptr;  // owned by the Topology
    int port = -1;
    std::unique_ptr<tcp::TcpStack> stack;
    std::unique_ptr<sttcp::StTcpEndpoint> ep;  // null unless ST-TCP is on
  };
  net::Ipv4Addr member_ip(int m) const {
    return m == 0 ? cfg_.primary_ip : backup_ip(m - 1);
  }
  const Member& backup_member(int i) const {
    return members_.at(static_cast<std::size_t>(i) + 1);
  }
  Member& backup_member(int i) { return members_.at(static_cast<std::size_t>(i) + 1); }

  std::unique_ptr<net::SerialLink> serial_;  // outlives the endpoints
  std::vector<Member> members_;              // [0] = primary, [i + 1] = backup i
};

}  // namespace sttcp::harness
