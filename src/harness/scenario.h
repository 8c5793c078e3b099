// Scenario: the paper's Figure-2 experimental setup, fully wired.
//
//                    ┌────────┐
//   client ──────────┤        ├────────── primary ──┐
//                    │ switch │                     │ serial (RS-232
//   gateway ─────────┤        ├────────── backup  ──┘  null-modem)
//                    └────────┘
//
// * serviceIP is an IP alias on both servers;
// * the switch carries a static multicast group (multiEA) fanning client
//   traffic to both servers;
// * client and gateway hold a static ARP entry serviceIP -> multiEA;
// * heartbeats run over UDP (IP link) and the serial link;
// * a PowerController provides the STONITH used before takeover.
//
// With `enable_sttcp = false` the same topology runs plain TCP: the backup
// neither taps nor replicates, and the client addresses the primary's own
// IP — the Demo 1 baseline ("even if a hot backup is available…") and the
// Demo 3 overhead comparison.
//
// \deprecated Scenario is now a thin compatibility facade over a one-cell
// Topology (harness/topology.h): it stamps the classic single-pair LAN with
// TopologyBuilder and forwards every accessor. Existing tests and benches
// keep working unchanged — construction order (and therefore every RNG
// fork) is bit-identical to the pre-facade harness, which
// tests/harness/topology_test.cc asserts. New code that needs more than one
// pair, routers, or custom wiring should use TopologyBuilder directly.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "harness/fault.h"
#include "harness/topology.h"
#include "sttcp/logger.h"

namespace sttcp::app {
class ServerApp;
}

namespace sttcp::harness {

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

  // ST-TCP (addresses are filled in by the scenario).
  sttcp::StTcpConfig sttcp;
  bool enable_sttcp = true;
  /// Backups beyond the classic one: 0 keeps the paper's 1+1 pair
  /// bit-exactly; k > 0 runs a 1+N replication group (N = 1 + k backups,
  /// "backup2" at 10.0.0.4, "backup3" at 10.0.0.5, IP heartbeats only).
  int extra_backups = 0;
  /// Add the §4.3 stream logger host (output-commit fallback).
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

  /// The equivalent topology-level config (everything but the logger host
  /// and CPU/bandwidth knobs, which are per-host/cell).
  TopologyConfig topology_config() const;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig cfg);
  ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  // --- topology access ---------------------------------------------------------
  sim::World& world() { return topo_->world(); }
  /// The one-cell Topology behind the facade.
  Topology& topology() { return *topo_; }
  net::Host& client() { return *topo_->host(0).host; }
  net::Host& primary() { return cell().primary(); }
  net::Host& backup() { return cell().backup(); }
  net::Host& gateway() { return *topo_->host(1).host; }
  net::Host* logger_host() {
    return cfg_.enable_logger ? topo_->host(2).host.get() : nullptr;
  }
  sttcp::StreamLogger* logger() { return logger_.get(); }
  net::Ipv4Addr logger_ip() const { return {10, 0, 0, 9}; }
  net::EthernetSwitch& ethernet_switch() { return topo_->ethernet_switch(); }
  net::PowerController& power() { return topo_->power(); }
  net::SerialLink& serial() { return cell().serial(); }
  net::Link& client_link() { return *topo_->host(0).link; }
  net::Link& primary_link() { return cell().primary_link(); }
  net::Link& backup_link() { return cell().backup_link(); }
  net::Link& gateway_link() { return *topo_->host(1).link; }

  tcp::TcpStack& client_stack() { return *topo_->host(0).stack; }
  tcp::TcpStack& primary_stack() { return cell().primary_stack(); }
  tcp::TcpStack& backup_stack() { return cell().backup_stack(); }
  sttcp::StTcpEndpoint* primary_endpoint() { return cell().primary_endpoint(); }
  sttcp::StTcpEndpoint* backup_endpoint() { return cell().backup_endpoint(); }

  // --- replication group (i = 0 is the classic backup) ---------------------
  int backup_count() { return cell().backup_count(); }
  net::Host& backup_member(int i) { return cell().backup_host(i); }
  net::Link& backup_member_link(int i) { return cell().backup_link(i); }
  tcp::TcpStack& backup_member_stack(int i) { return cell().backup_stack(i); }
  sttcp::StTcpEndpoint* backup_member_endpoint(int i) {
    return cell().backup_endpoint(i);
  }
  net::Ipv4Addr backup_member_ip(int i) const { return cell().backup_ip(i); }

  const ScenarioConfig& config() const { return cfg_; }

  // --- addressing ---------------------------------------------------------------
  net::Ipv4Addr client_ip() const { return {10, 0, 0, 1}; }
  net::Ipv4Addr primary_ip() const { return {10, 0, 0, 2}; }
  net::Ipv4Addr backup_ip() const { return {10, 0, 0, 3}; }
  net::Ipv4Addr gateway_ip() const { return {10, 0, 0, 254}; }
  net::Ipv4Addr service_ip() const { return {10, 0, 0, 100}; }
  std::uint16_t service_port() const { return cfg_.sttcp.service_port; }
  /// Where a client should connect: the virtual service address with
  /// ST-TCP, the primary's own address without it.
  net::SocketAddr connect_addr() const {
    return cfg_.enable_sttcp
               ? net::SocketAddr{service_ip(), service_port()}
               : net::SocketAddr{primary_ip(), service_port()};
  }
  /// The baseline's reconnect target (the hot backup's own address).
  net::SocketAddr backup_addr() const {
    return net::SocketAddr{backup_ip(), service_port()};
  }

  /// Emulate the ORIGINAL ST-TCP architecture (paper §3): the backup also
  /// receives all primary->client traffic (switch egress mirror + backup NIC
  /// in promiscuous mode). The new architecture replaced this with counters
  /// carried in the heartbeat; the ablation bench quantifies the difference.
  void emulate_old_design_tap();

  // --- failure injection ----------------------------------------------------------
  /// Arm a fault (see harness/fault.h). Each firing stamps the
  /// "fault_injected" trace event and the kFaultInjected timeline milestone.
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

  // --- telemetry ------------------------------------------------------------------
  /// Null unless cfg.enable_metrics.
  obs::MetricsRegistry* metrics() { return topo_->metrics(); }
  obs::PcapWriter* pcap() { return topo_->pcap(); }
  /// Snapshot the cumulative Stats counters (links, switch, serial, stacks,
  /// endpoints) into the registry; live instruments are already there.
  void export_metrics() { topo_->export_metrics(); }
  /// export_metrics() then serialise the whole registry (counters, gauges,
  /// histogram summaries, failover timeline) as one JSON object.
  std::string metrics_json() { return topo_->metrics_json(); }

  void run_for(sim::Duration d) { topo_->run_for(d); }

 private:
  Cell& cell() { return topo_->cell(0); }
  const Cell& cell() const { return const_cast<Scenario*>(this)->topo_->cell(0); }

  ScenarioConfig cfg_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<sttcp::StreamLogger> logger_;
  std::array<app::ServerApp*, 6> server_apps_{};  // indexed by Node
};

}  // namespace sttcp::harness
