// Composable fault injection for any Topology.
//
// Faults are values: a factory names WHAT fails, builders say WHEN and how
// often, and Topology::inject() arms it against the live topology:
//
//   using namespace sttcp::sim::literals;
//   topo->inject(Fault::Crash(Node::kPrimary).at(2_s));
//   topo->inject(Fault::FrameLoss(Node::kBackup, 40).at(1_s).repeat(3, 500_ms));
//   topo->inject(Fault::LinkFlap(Node::kClient, 200_ms).at(4_s));
//
// A Node names a member of cell 0 or one of the hosts named "client" and
// "gateway" — the Figure-2 recipe (build_figure2) builds exactly those, and
// any other topology that names its hosts so is a target too.
//
// Every injection stamps the fault_injected trace event and (when telemetry
// is enabled) the obs::FailoverTimeline kFaultInjected milestone, so the
// failover decomposition starts at the true fault time regardless of which
// fault class fired. A FaultPlan bundles several faults so a whole drill can
// be passed around as one object.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/clock_domain.h"
#include "sim/time.h"

namespace sttcp::harness {

class Topology;

/// The four machines of the Figure-2 topology (the serial cable is addressed
/// by the Serial* faults; the optional logger host is not a fault target).
/// kBackup2/kBackup3 address the extra replication-group backups of a cell
/// with extra_backups > 0; on a classic pair they alias kBackup so a group
/// schedule stays injectable as a negative control.
enum class Node { kClient, kPrimary, kBackup, kGateway, kBackup2, kBackup3 };

const char* to_string(Node n);

class Fault {
 public:
  /// HW/OS crash: the host stops entirely (Table 1 row 1).
  static Fault Crash(Node n);
  /// Revive a crashed host: power restored, NICs healed, boot hooks run
  /// (blank TCP stack, fresh application, ST-TCP rejoin solicitation). The
  /// inverse of Crash; a no-op on a host that is already up.
  static Fault PowerOn(Node n);
  /// NIC/cable failure: the NIC goes down, the host keeps running (row 4).
  static Fault NicFailure(Node n);
  static Fault NicRestore(Node n);
  /// Cut / restore the RS-232 heartbeat cable.
  static Fault SerialCut();
  static Fault SerialRestore();
  /// Drop the next `frames` frames in each direction of the node's switch
  /// link (temporary loss; drives the missed-byte recovery path).
  static Fault FrameLoss(Node n, int frames);
  /// Take the node's switch link down / up (both directions, silent loss).
  static Fault LinkDown(Node n);
  static Fault LinkUp(Node n);
  /// LinkDown immediately followed by LinkUp after `down_for`.
  static Fault LinkFlap(Node n, sim::Duration down_for);

  // --- adversarial impairments (net::Impairment on the node's switch link,
  // both directions). `window` bounds the impairment: the knob resets after
  // that long; zero means it stays armed until cleared by hand. ------------
  /// Single-bit frame corruption with probability `p` per frame.
  static Fault Corrupt(Node n, double p, sim::Duration window);
  /// Frame duplication with probability `p` per frame.
  static Fault Duplicate(Node n, double p, sim::Duration window);
  /// Bounded reordering: with probability `p` a frame is delayed `delay`
  /// extra and allowed to arrive behind its successors.
  static Fault Reorder(Node n, double p, sim::Duration delay, sim::Duration window);
  /// Gilbert–Elliott burst loss: per-frame P(enter Bad) / P(exit Bad); every
  /// frame offered while Bad is lost.
  static Fault BurstLoss(Node n, double p_enter, double p_exit, sim::Duration window);
  /// Uniform latency jitter in [0, max_jitter); never reorders by itself.
  static Fault Jitter(Node n, sim::Duration max_jitter, sim::Duration window);
  /// RS-232 line noise: per-message bit-flip / mid-message-cut probabilities.
  static Fault SerialCorrupt(double corrupt_p, double truncate_p, sim::Duration window);

  // --- grey failures: slow-not-dead, the host keeps heartbeating ----------
  /// CPU stall: the node's TCP/application processing freezes per `profile`
  /// (sim::ClockDomain) while interrupt-level work — the NIC, UDP/ICMP, and
  /// the ST-TCP endpoint's real-time-priority heartbeat daemon — keeps
  /// running. The peer keeps hearing "alive" with frozen progress counters:
  /// conviction must come from counter stagnation, not heartbeat silence.
  static Fault CpuStall(Node n, sim::LagProfile profile);
  /// Degraded NIC receive path: frames travelling TOWARD the node are
  /// dropped i.i.d. with probability `p` (the transmit side stays clean).
  /// TCP retransmission masks this class entirely; it must never be
  /// convicted on its own.
  static Fault SlowNic(Node n, double p, sim::Duration window);
  /// Application hang (paper §4.2): the node's server process stops
  /// consuming and producing, sockets stay open, the stack and heartbeat
  /// daemon keep running. Requires Topology::register_server_app(n, ...);
  /// a no-op (with a trace record) when no app is registered for the node.
  static Fault AppHang(Node n);
  /// Escape hatch: run an arbitrary action against the topology. The label
  /// appears in the trace; used by the bench harness for app-level faults
  /// (hang, clean close, abort) that are not topology events.
  static Fault Custom(std::string label, std::function<void(Topology&)> action);

  /// Fire at `t` (relative to injection time; default: immediately).
  Fault at(sim::Duration t) const;
  /// Fire `times` times in total, `interval` apart (default: once).
  Fault repeat(int times, sim::Duration interval) const;

  const std::string& label() const { return label_; }
  sim::Duration when() const { return at_; }
  int times() const { return times_; }
  sim::Duration interval() const { return interval_; }

 private:
  friend class Topology;
  Fault() = default;

  std::string label_;
  std::function<void(Topology&)> action_;
  sim::Duration at_ = sim::Duration::zero();
  int times_ = 1;
  sim::Duration interval_ = sim::Duration::zero();
};

/// An ordered bundle of faults; injected as one unit.
class FaultPlan {
 public:
  FaultPlan() = default;
  FaultPlan(std::initializer_list<Fault> faults) : faults_(faults) {}

  FaultPlan& add(Fault f) {
    faults_.push_back(std::move(f));
    return *this;
  }

  /// Draw a 2–4-fault adversarial schedule from `seed`: at most one fatal
  /// server fault (crash / NIC failure / serial cut), the rest bounded-window
  /// link and serial impairments. Schedules are survivable by construction —
  /// combinations that amount to a simultaneous double failure (e.g. a NIC
  /// failure plus serial noise, which can blind both channels at once) are
  /// excluded, so every generated plan must be masked and the chaos fuzzer
  /// can assert completion. Same seed, same plan.
  static FaultPlan Adversarial(std::uint64_t seed);

  /// Draw a SIMULTANEOUS double-failure schedule from `seed`: two distinct
  /// replication-group members crash at the same instant in [300, 1500] ms —
  /// leader + a backup about 2/3 of the time, backup + backup otherwise —
  /// plus 0–2 mild loss-free garnish impairments. The RNG draw sequence is
  /// independent of `n_backups`, so the same seed yields the same schedule
  /// shape at every group size; member indices beyond the roster clamp to
  /// the highest existing backup (at N = 2 a leader+backup2 schedule becomes
  /// leader+backup — the negative control that MUST fail, while N = 3 masks
  /// it). Survivable by construction at n_backups >= 2 under quorum
  /// promotion: at least one member always survives. Same seed, same plan.
  static FaultPlan MultiFailure(std::uint64_t seed, int n_backups = 2);

  /// True when MultiFailure(seed, ...) draws a leader-involving schedule
  /// (the pair crashed = leader + one backup). Re-derivable from the seed
  /// alone so sweeps can select negative-control seeds without injecting.
  static bool MultiFailureInvolvesLeader(std::uint64_t seed);

  /// Draw a grey-failure schedule from `seed`: exactly ONE convictable grey
  /// fault — an application hang, or a hard CPU stall longer than any
  /// conviction budget — on the primary or the backup, landing at 200–800 ms,
  /// plus up to two mild bounded-window garnish impairments (jitter /
  /// duplication / reordering only). Schedules are survivable by
  /// construction: no loss of any kind is drawn, because frame loss can
  /// freeze counters (a client whose ACKs are dropped looks exactly like a
  /// stalled primary) or blind the grey host's own view of its healthy peer —
  /// either way manufacturing a false conviction the sweep would then have
  /// to tolerate. Same seed, same plan. The convictable fault is always
  /// faults().front().
  static FaultPlan Grey(std::uint64_t seed);

  const std::vector<Fault>& faults() const { return faults_; }
  bool empty() const { return faults_.empty(); }
  std::size_t size() const { return faults_.size(); }

  /// Human-readable schedule ("corrupt:client(p=0.012,1.20s) @0.30s; ...")
  /// — printed next to the seed when a chaos run violates an invariant.
  std::string str() const;

 private:
  std::vector<Fault> faults_;
};

}  // namespace sttcp::harness
