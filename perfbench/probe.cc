#include "probe.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>
#include <typeinfo>

#include "net/nic.h"
#include "net/switch.h"
#include "sttcp/decision.h"
#include "sttcp/messages.h"

namespace sttcp::perfbench {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Fixed-offset header access: the simulator writes Ethernet II + IPv4
// without options (net/headers.h).
constexpr std::size_t kEth = 14;
constexpr std::size_t kIp = kEth + 20;

std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
std::uint32_t be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

bool is_ipv4(const net::Frame& f) {
  return f.size() >= kIp && be16(f.data() + 12) == 0x0800;
}
std::uint8_t ip_proto(const net::Frame& f) { return f.data()[kEth + 9]; }
std::uint32_t ip_src(const net::Frame& f) { return be32(f.data() + kEth + 12); }
std::uint32_t ip_dst(const net::Frame& f) { return be32(f.data() + kEth + 16); }

/// TCP header fields the request tracker needs.
struct Tcp {
  std::uint16_t sport = 0, dport = 0;
  std::uint32_t seq = 0;
  bool syn = false, ack = false;
  std::size_t payload = 0;
};

bool parse_tcp(const net::Frame& f, Tcp* t) {
  if (!is_ipv4(f) || ip_proto(f) != 6 || f.size() < kIp + 20) return false;
  const std::uint8_t* p = f.data() + kIp;
  const std::size_t hdr = static_cast<std::size_t>(p[12] >> 4) * 4;
  const std::size_t ip_total = be16(f.data() + kEth + 2);
  if (hdr < 20 || ip_total < 20 + hdr || kEth + ip_total > f.size()) return false;
  t->sport = be16(p);
  t->dport = be16(p + 2);
  t->seq = be32(p + 4);
  t->syn = (p[13] & 0x02) != 0;
  t->ack = (p[13] & 0x10) != 0;
  t->payload = ip_total - 20 - hdr;
  return true;
}

bool is_heartbeat(const net::Frame& f, std::uint16_t hb_port) {
  return is_ipv4(f) && ip_proto(f) == 17 && f.size() >= kIp + 8 &&
         be16(f.data() + kIp + 2) == hb_port;
}

/// Sequence `seq` starts at or beyond `next` (new data, not a retransmit).
bool seq_new(std::uint32_t seq, std::uint32_t next) {
  return static_cast<std::int32_t>(seq - next) >= 0;
}

std::uint64_t addr_key(std::uint32_t ip, std::uint16_t port) {
  return (static_cast<std::uint64_t>(ip) << 32) |
         (static_cast<std::uint64_t>(port) << 16);
}

}  // namespace

Probe::Kind Probe::kind_of(const net::FrameSink& sink, harness::Topology& topo) {
  if (const auto* nic = dynamic_cast<const net::Nic*>(&sink)) {
    const std::string host = nic->name().substr(0, nic->name().find('/'));
    if (host.size() >= 7 && host.compare(host.size() - 7, 7, "primary") == 0) {
      return Kind::kPrimary;
    }
    if (host.find("backup") != std::string::npos) return Kind::kBackup;
    const auto* entry = topo.host_by_name(host);
    return entry != nullptr && entry->with_stack ? Kind::kClient : Kind::kGateway;
  }
  // Switch, router and trunk-channel ports are private FrameSink types; their
  // dynamic type names them.
  const std::string type = typeid(sink).name();
  if (type.find("SwitchPort") != std::string::npos) return Kind::kSwitch;
  if (type.find("RouterPort") != std::string::npos) return Kind::kRouter;
  if (type.find("QueueSink") != std::string::npos) return Kind::kTrunk;
  throw std::logic_error("probe: unclassified link sink " + type);
}

class Probe::TimedSink final : public net::FrameSink {
 public:
  TimedSink(Probe& probe, net::FrameSink* inner, Kind kind, sim::World& world)
      : probe_(probe), inner_(inner), kind_(kind), world_(world) {}
  void deliver_frame(net::Frame frame) override {
    probe_.deliver(*this, std::move(frame));
  }

 private:
  friend class Probe;
  Probe& probe_;
  net::FrameSink* inner_;
  Kind kind_;
  sim::World& world_;
};

Probe::Probe(harness::Topology& topo, Options opt) : opt_(opt), topo_(topo) {
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    net::Link& link = topo.link(i);
    sim::World& world = topo.world(static_cast<std::size_t>(topo.link_shard(i)));
    for (int p = 0; p < 2; ++p) {
      net::Link::Port& port = link.port(p);
      net::FrameSink* inner = port.sink();
      if (inner == nullptr) continue;
      const Kind kind = kind_of(*inner, topo);
      Wrapped w;
      w.port = &port;
      w.sink = std::make_unique<TimedSink>(*this, inner, kind, world);
      port.set_sink(w.sink.get());
      wrapped_.push_back(std::move(w));
    }
  }
  for (std::size_t s = 0; s < topo.switch_count(); ++s) {
    net::EthernetSwitch& sw = topo.ethernet_switch(s);
    prev_taps_.push_back(sw.frame_tap());
    net::EthernetSwitch::FrameTap prev = sw.frame_tap();
    sw.set_frame_tap([this, prev](sim::SimTime at, const net::Frame& f) {
      const std::uint64_t t0 = now_ns();
      on_switch_frame(at, f);
      const std::uint64_t t1 = now_ns();
      child_ns_ += t1 - t0;  // probe analysis: not the switch's self time
      if (prev) {
        const std::uint64_t saved = child_ns_;
        child_ns_ = 0;
        prev(at, f);
        const std::uint64_t dt = now_ns() - t1;
        add_time(Site::kCheckerTap, dt);
        child_ns_ = saved + dt;
      }
    });
  }
}

Probe::~Probe() {
  for (Wrapped& w : wrapped_) w.port->set_sink(w.sink->inner_);
  for (std::size_t s = 0; s < prev_taps_.size(); ++s) {
    topo_.ethernet_switch(s).set_frame_tap(prev_taps_[s]);
  }
}

void Probe::add_time(Site site, std::uint64_t self_ns) {
  Bucket& b = buckets_[static_cast<int>(site)];
  ++b.count;
  b.self_ns += self_ns;
}

Site Probe::site_of(Kind kind, const net::Frame& f) const {
  switch (kind) {
    case Kind::kSwitch: return Site::kSwitch;
    case Kind::kRouter: return Site::kRouter;
    case Kind::kTrunk: return Site::kTrunk;
    case Kind::kGateway: return Site::kGateway;
    default: break;
  }
  const bool tcp = is_ipv4(f) && ip_proto(f) == 6;
  if (kind == Kind::kClient) return tcp ? Site::kClientTcp : Site::kHostOther;
  const bool primary = kind == Kind::kPrimary;
  if (tcp) return primary ? Site::kPrimaryTcp : Site::kBackupTcp;
  if (is_heartbeat(f, opt_.hb_port)) {
    return primary ? Site::kPrimaryHeartbeat : Site::kBackupHeartbeat;
  }
  return Site::kHostOther;
}

void Probe::deliver(TimedSink& s, net::Frame frame) {
  const std::uint64_t t0 = now_ns();
  const Site site = site_of(s.kind_, frame);
  if (opt_.track_requests && s.kind_ == Kind::kClient) {
    on_client_rx(s.world_.now(), frame);
  }
  const std::uint64_t t1 = now_ns();
  if (depth_ == 0) {
    probe_outer_ns_ += t1 - t0;
  } else {
    child_ns_ += t1 - t0;
  }
  const std::uint64_t saved = child_ns_;
  child_ns_ = 0;
  ++depth_;
  s.inner_->deliver_frame(std::move(frame));
  --depth_;
  const std::uint64_t dt = now_ns() - t1;
  add_time(site, dt - std::min(child_ns_, dt));
  child_ns_ = saved + dt;
  if (depth_ == 0) sink_ns_ += dt;
}

double Probe::failover_stall_ms() const {
  if (stall_end_ < 0) return -1;
  return static_cast<double>(stall_end_ - opt_.crash_at.ns()) / 1e6;
}

void Probe::on_switch_frame(sim::SimTime at, const net::Frame& f) {
  ++switch_frames_;
  switch_bytes_ += f.size();
  if (!is_ipv4(f)) return;
  if (is_heartbeat(f, opt_.hb_port)) {
    ++beats_;
    beat_bytes_ += f.size();
    const std::size_t n = static_cast<std::size_t>(be16(f.data() + kIp + 4));
    if (n >= 8 && kIp + n <= f.size()) on_heartbeat(at, f.data() + kIp + 8, n - 8);
    return;
  }
  Tcp t;
  if (!parse_tcp(f, &t)) return;
  if (stall_end_ < 0 && at > opt_.crash_at && t.payload > 0 &&
      ip_src(f) == opt_.service_ip.value()) {
    std::array<std::uint8_t, 6> src{};
    std::copy(f.data() + 6, f.data() + 12, src.begin());
    if (net::MacAddr(src) == opt_.survivor_mac) stall_end_ = at.ns();
  }
  if (!opt_.track_requests || t.payload == 0) return;
  const std::uint32_t svc_ip = opt_.service.ip.value();
  if (ip_src(f) == opt_.client_ip.value() && ip_dst(f) == svc_ip &&
      t.dport == opt_.service.port) {
    Conn& c = conns_[t.sport];
    if (c.req_seen && !seq_new(t.seq, c.req_next)) return;  // retransmit
    c.req_seen = true;
    c.req_next = t.seq + static_cast<std::uint32_t>(t.payload);
    RequestSpans r;
    r.sent = c.trigger;
    r.at_switch = at.ns();
    const std::uint64_t key = addr_key(ip_src(f), t.sport);
    const std::uint64_t n = addr_requests_[key]++;
    by_order_[key | (n & 0xFFFF)] = requests_.size();
    c.outstanding.push_back(requests_.size());
    requests_.push_back(r);
  } else if (ip_src(f) == svc_ip && t.sport == opt_.service.port &&
             ip_dst(f) == opt_.client_ip.value()) {
    Conn& c = conns_[t.dport];
    if (c.resp_seen && !seq_new(t.seq, c.resp_next)) return;
    c.resp_seen = true;
    c.resp_next = t.seq + static_cast<std::uint32_t>(t.payload);
    if (c.outstanding.empty()) {
      ++unmatched_;
      return;
    }
    const std::size_t idx = c.outstanding.front();
    c.outstanding.erase(c.outstanding.begin());
    requests_[idx].released = at.ns();
    c.in_flight.push_back(idx);
  }
}

void Probe::on_heartbeat(sim::SimTime at, const std::uint8_t* p, std::size_t n) {
  if (!opt_.track_requests) return;
  const auto msg = sttcp::HeartbeatMsg::parse(net::BytesView(p, n));
  if (!msg || !msg->decisions_valid) return;
  if (msg->role == sttcp::Role::kPrimary) {
    std::vector<sttcp::DecisionRecord> recs = msg->decisions;
    std::sort(recs.begin(), recs.end(),
              [](const auto& a, const auto& b) { return a.seq < b.seq; });
    for (const sttcp::DecisionRecord& r : recs) {
      if (r.seq <= max_decision_seq_) continue;  // retransmitted record
      max_decision_seq_ = r.seq;
      const auto kind = static_cast<sttcp::DecisionKind>(r.kind);
      if (kind == sttcp::DecisionKind::kOrder) {
        const auto it = by_order_.find(r.value);
        if (it == by_order_.end()) {
          ++unmatched_;
          open_group_ = SIZE_MAX;
          continue;
        }
        open_group_ = it->second;
        by_order_.erase(it);
        requests_[open_group_].decided = at.ns();
        requests_[open_group_].last_seq = r.seq;
        awaiting_ack_.push_back(open_group_);
      } else if (kind == sttcp::DecisionKind::kFlush) {
        open_group_ = SIZE_MAX;  // a writeback pass, not a request's
      } else if (open_group_ != SIZE_MAX) {
        requests_[open_group_].last_seq = r.seq;
      }
    }
  } else {
    while (ack_cursor_ < awaiting_ack_.size() &&
           requests_[awaiting_ack_[ack_cursor_]].last_seq <= msg->decision_ack) {
      requests_[awaiting_ack_[ack_cursor_]].acked = at.ns();
      ++ack_cursor_;
    }
  }
}

void Probe::on_client_rx(sim::SimTime at, const net::Frame& f) {
  Tcp t;
  if (!parse_tcp(f, &t) || ip_src(f) != opt_.service.ip.value() ||
      t.sport != opt_.service.port) {
    return;
  }
  Conn& c = conns_[t.dport];
  if (t.syn && t.ack) {
    c = Conn{};  // a new connection on this client port
    c.trigger = at.ns();
    return;
  }
  if (t.payload == 0) return;
  if (c.rx_seen && !seq_new(t.seq, c.rx_next)) return;
  c.rx_seen = true;
  c.rx_next = t.seq + static_cast<std::uint32_t>(t.payload);
  if (c.in_flight.empty()) {
    ++unmatched_;
    return;
  }
  requests_[c.in_flight.front()].parsed = at.ns();
  c.in_flight.erase(c.in_flight.begin());
  c.trigger = at.ns();
}

}  // namespace sttcp::perfbench
