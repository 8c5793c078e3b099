#include "harness/scenario.h"

namespace sttcp::harness {

namespace {
const net::MacAddr kClientMac = net::MacAddr::from_u64(0x020000000001ull);
const net::MacAddr kPrimaryMac = net::MacAddr::from_u64(0x020000000002ull);
const net::MacAddr kBackupMac = net::MacAddr::from_u64(0x020000000003ull);
const net::MacAddr kGatewayMac = net::MacAddr::from_u64(0x0200000000feull);
const net::MacAddr kLoggerMac = net::MacAddr::from_u64(0x020000000009ull);
const net::MacAddr kMultiEa = net::MacAddr::multicast_group(0x57);
}  // namespace

ScenarioConfig ScenarioConfig::Paper2005() {
  ScenarioConfig cfg;
  cfg.link_latency = sim::Duration::micros(50);
  cfg.link_bandwidth_bps = 100'000'000;  // Fast Ethernet
  cfg.serial_baud = 115200;
  cfg.sttcp.hb_period = sim::Duration::millis(200);
  cfg.sttcp.hb_miss_threshold = 3;
  return cfg;
}

ScenarioConfig ScenarioConfig::FastNet() {
  ScenarioConfig cfg;
  cfg.link_latency = sim::Duration::micros(5);
  cfg.link_bandwidth_bps = 1'000'000'000;  // gigabit
  cfg.serial_baud = 1'000'000;
  cfg.sttcp.hb_period = sim::Duration::millis(50);
  cfg.sttcp.hb_miss_threshold = 3;
  return cfg;
}

TopologyConfig ScenarioConfig::topology_config() const {
  TopologyConfig tc;
  tc.seed = seed;
  tc.link_latency = link_latency;
  tc.link_bandwidth_bps = link_bandwidth_bps;
  tc.serial_baud = serial_baud;
  tc.tcp = tcp;
  tc.sttcp = sttcp;
  tc.enable_sttcp = enable_sttcp;
  if (enable_logger) tc.logger_ip = net::Ipv4Addr{10, 0, 0, 9};
  tc.log_out = log_out;
  tc.log_level = log_level;
  tc.enable_metrics = enable_metrics;
  tc.pcap_path = pcap_path;
  return tc;
}

Scenario::Scenario(ScenarioConfig cfg) : cfg_(std::move(cfg)) {
  // Stamp the classic Figure-2 LAN as a one-cell topology. Call order
  // matters: it reproduces the pre-facade harness construction (and RNG
  // fork) sequence exactly — links client, primary, backup, gateway,
  // [logger], then stacks client, primary, backup, then endpoint start.
  TopologyBuilder b(cfg_.topology_config());
  const int lan = b.add_switch("switch");

  HostOptions client_opt;
  client_opt.mac = kClientMac;
  client_opt.with_stack = true;
  b.add_host("client", client_ip(), lan, client_opt);

  CellConfig cc;
  cc.primary_ip = primary_ip();
  cc.backup_ip = backup_ip();
  cc.service_ip = service_ip();
  cc.gateway_ip = gateway_ip();
  cc.primary_mac = kPrimaryMac;
  cc.backup_mac = kBackupMac;
  cc.multicast_group = kMultiEa;
  cc.backup_link_bandwidth_bps = cfg_.backup_link_bandwidth_bps;
  cc.primary_cpu_packet_time = cfg_.primary_cpu_packet_time;
  cc.backup_cpu_packet_time = cfg_.backup_cpu_packet_time;
  cc.extra_backups = cfg_.extra_backups;
  b.add_cell(lan, cc);

  HostOptions gw_opt;
  gw_opt.mac = kGatewayMac;
  b.add_host("gateway", gateway_ip(), lan, gw_opt);

  // Optional stream logger host (§4.3 output-commit extension): joins the
  // multicast group so it taps the same client traffic as the servers.
  if (cfg_.enable_logger) {
    HostOptions lg_opt;
    lg_opt.mac = kLoggerMac;
    const int idx = b.add_host("logger", logger_ip(), lan, lg_opt);
    Topology::HostEntry& lh = b.topology().host(static_cast<std::size_t>(idx));
    // The logger owns the service alias too, so tapped client->service
    // packets pass its host's IP filter (a real tap would capture
    // promiscuously; the alias is the simulator's equivalent).
    lh.host->add_ip(service_ip());
    lh.host->nic().subscribe_multicast(kMultiEa);
    Cell& c = b.topology().cell(0);
    std::vector<int> ports = {c.primary_port()};
    for (int i = 0; i < c.backup_count(); ++i) ports.push_back(c.backup_switch_port(i));
    ports.push_back(lh.port);
    b.topology().ethernet_switch().add_multicast_group(kMultiEa, ports);
  }

  topo_ = b.build();

  if (cfg_.enable_logger) {
    sttcp::StreamLogger::Config lc;
    lc.service_ip = service_ip();
    logger_ = std::make_unique<sttcp::StreamLogger>(*topo_->host(2).host, lc);
  }
}

Scenario::~Scenario() = default;

void Scenario::emulate_old_design_tap() {
  // Port order of construction: client=0, primary=1, backup=2, gateway=3.
  ethernet_switch().add_egress_mirror(topo_->host(0).port, cell().backup_port());
  backup().nic().set_promiscuous(true);
}

void Scenario::inject(Fault fault) {
  const int times = fault.times_ < 1 ? 1 : fault.times_;
  for (int i = 0; i < times; ++i) {
    const sim::Duration when = fault.at_ + fault.interval_ * i;
    world().loop().schedule_after(when, [this, fault] {
      world().trace().record("harness", "fault_injected", fault.label_);
      if (metrics() != nullptr) {
        metrics()->timeline().mark(obs::Milestone::kFaultInjected, world().now());
      }
      fault.action_(*this);
    });
  }
}

void Scenario::inject(const FaultPlan& plan) {
  for (const Fault& f : plan.faults()) inject(f);
}

}  // namespace sttcp::harness
