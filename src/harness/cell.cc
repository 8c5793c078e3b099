#include "harness/cell.h"

#include "harness/topology.h"

namespace sttcp::harness {

namespace {

/// Derived member MACs: cell 0 gets the classic 02:00:00:00:00:02/03, cell k
/// shifts the fourth octet so stamped cells never collide. Extra group
/// backups continue the sequence (member 2 = ...:04, member 3 = ...:05).
net::MacAddr derived_mac(int cell_index, int member) {
  return net::MacAddr::from_u64(0x020000000002ull +
                                (static_cast<std::uint64_t>(cell_index) << 16) +
                                static_cast<std::uint64_t>(member));
}

std::string member_name(const std::string& prefix, const std::string& role) {
  return prefix.empty() ? role : prefix + "." + role;
}

/// "primary", "backup", "backup2", "backup3", ... (m = member index).
std::string member_role(int m) {
  if (m == 0) return "primary";
  return m == 1 ? "backup" : "backup" + std::to_string(m);
}

}  // namespace

Cell::Cell(Topology& topo, int index, int switch_id, CellConfig cfg)
    : topo_(topo),
      world_(&topo.build_world()),
      cfg_(std::move(cfg)),
      index_(index),
      switch_id_(switch_id),
      shard_(topo.build_shard()),
      sttcp_enabled_(cfg_.enable_sttcp && topo.config().enable_sttcp) {
  const TopologyConfig& tc = topo_.config();
  if (cfg_.primary_mac == net::MacAddr()) cfg_.primary_mac = derived_mac(index_, 0);
  if (cfg_.backup_mac == net::MacAddr()) cfg_.backup_mac = derived_mac(index_, 1);
  if (cfg_.extra_backups < 0) cfg_.extra_backups = 0;
  multicast_mac_ = cfg_.multicast_group == net::MacAddr()
                       ? net::MacAddr::multicast_group(0x57 + static_cast<std::uint32_t>(index_))
                       : cfg_.multicast_group;

  net::EthernetSwitch& sw = topo_.ethernet_switch(static_cast<std::size_t>(switch_id_));
  net::PowerController& power =
      topo_.power(static_cast<std::size_t>(cfg_.power_controller));
  const std::uint64_t pbw =
      cfg_.link_bandwidth_bps != 0 ? cfg_.link_bandwidth_bps : tc.link_bandwidth_bps;
  const std::uint64_t bbw =
      cfg_.backup_link_bandwidth_bps != 0 ? cfg_.backup_link_bandwidth_bps : pbw;

  // One member at a time, primary first: each member's link is the cell's
  // only RNG fork, so member order is fork order. Every member carries the
  // ST-TCP service address as an alias and taps the multicast group.
  const int n = 2 + cfg_.extra_backups;
  members_.resize(static_cast<std::size_t>(n));
  std::vector<int> tap_ports;
  for (int m = 0; m < n; ++m) {
    Member& mb = members_[static_cast<std::size_t>(m)];
    const std::string name = member_name(cfg_.name, member_role(m));
    mb.mac = m == 0   ? cfg_.primary_mac
             : m == 1 ? cfg_.backup_mac
                      : derived_mac(index_, m);
    mb.host = std::make_unique<net::Host>(*world_, name);
    net::Nic& nic = mb.host->add_nic(mb.mac);
    mb.host->add_ip(member_ip(m));
    mb.link = topo_.make_link(name, m == 0 ? pbw : bbw);
    nic.attach(mb.link->port(0));
    mb.port = sw.add_port(mb.link->port(1));
    power.register_host(*mb.host);
    mb.host->add_ip(cfg_.service_ip);
    nic.subscribe_multicast(multicast_mac_);
    mb.host->set_cpu_packet_time(m == 0 ? cfg_.primary_cpu_packet_time
                                        : cfg_.backup_cpu_packet_time);
    tap_ports.push_back(mb.port);
  }
  sw.add_multicast_group(multicast_mac_, tap_ports);
}

Cell::~Cell() = default;

void Cell::start() {
  const TopologyConfig& tc = topo_.config();
  // Serial null-modem cable between members 0 and 1 (port 0 = primary). It
  // stays a point-to-point cable at every roster size: extra backups
  // heartbeat over IP only (docs/GROUPS.md).
  serial_ = std::make_unique<net::SerialLink>(*world_, tc.serial_baud);

  for (Member& mb : members_) {
    mb.stack = std::make_unique<tcp::TcpStack>(*mb.host, tc.tcp);
  }

  if (!sttcp_enabled_) return;

  net::PowerController& power =
      topo_.power(static_cast<std::size_t>(cfg_.power_controller));
  // Every member carries the same roster; ranks start in roster order
  // (primary = rank 0).
  sttcp::StTcpConfig ep_cfg = tc.sttcp;
  ep_cfg.service_ip = cfg_.service_ip;
  ep_cfg.gateway_ip = cfg_.gateway_ip;
  if (!tc.logger_ip.is_zero()) ep_cfg.logger_ip = tc.logger_ip;
  const int n = static_cast<int>(members_.size());
  for (int m = 0; m < n; ++m) {
    ep_cfg.group.push_back({members_[static_cast<std::size_t>(m)].host->name(),
                            member_ip(m), /*serial=*/m < 2});
  }
  for (int m = 0; m < n; ++m) {
    Member& mb = members_[static_cast<std::size_t>(m)];
    ep_cfg.my_ip = member_ip(m);
    ep_cfg.my_member = m;
    mb.ep = std::make_unique<sttcp::StTcpEndpoint>(
        *mb.host, *mb.stack, power, m < 2 ? &serial_->port(m) : nullptr,
        m == 0 ? sttcp::Role::kPrimary : sttcp::Role::kBackup, ep_cfg);
  }
  for (Member& mb : members_) mb.ep->start();
}

std::uint16_t Cell::service_port() const { return topo_.config().sttcp.service_port; }

net::SocketAddr Cell::connect_addr() const {
  return sttcp_enabled_ ? net::SocketAddr{cfg_.service_ip, service_port()}
                        : net::SocketAddr{cfg_.primary_ip, service_port()};
}

net::SocketAddr Cell::backup_addr() const {
  return net::SocketAddr{cfg_.backup_ip, service_port()};
}

}  // namespace sttcp::harness
