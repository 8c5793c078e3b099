// Simultaneous double failures against 1+N replication groups.
//
// The tentpole claim of the group extension: with two backups (N = 3),
// EVERY FaultPlan::MultiFailure schedule — two members crashing at the same
// instant — is masked: the transfer completes bit-exact, the client never
// sees a RST, and no promotion race produces two active servers. The classic
// 1+1 pair CANNOT mask the leader-involving schedules, and the negative
// control proves it: the same seeds, run at N = 2, must fail. Together the
// two sweeps show the sweep measures redundancy, not scheduler luck.
//
//   STTCP_MULTI_SEEDS=N   sweep seed count (default 200; CI lanes lower it)
//   STTCP_MULTI_SEED=S    replay exactly seed S via --gtest_filter='*ReplaySeed*'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "app/client.h"
#include "app/server.h"
#include "harness/chaos.h"
#include "harness/sweep.h"
#include "harness/topology.h"

namespace sttcp::harness {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

TEST(MultiFailurePlanTest, PlansAreDeterministicAndShapedRight) {
  int leader_involved = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const FaultPlan a = FaultPlan::MultiFailure(seed, 2);
    EXPECT_EQ(a.str(), FaultPlan::MultiFailure(seed, 2).str()) << "seed " << seed;
    // Exactly two crash faults, same instant, distinct members.
    int crashes = 0;
    std::string first_when, first_node;
    for (const Fault& f : a.faults()) {
      const std::string& l = f.label();
      if (l.rfind("crash:", 0) == 0) ++crashes;
    }
    EXPECT_EQ(crashes, 2) << a.str();
    EXPECT_GE(a.size(), 2u);
    EXPECT_LE(a.size(), 4u);  // + 0-2 garnish impairments
    if (FaultPlan::MultiFailureInvolvesLeader(seed)) ++leader_involved;
  }
  // The 65/35 leader/backup-pair split actually materialises.
  EXPECT_GT(leader_involved, 250);
  EXPECT_LT(leader_involved, 400);
}

TEST(MultiFailurePlanTest, SeedYieldsSameScheduleShapeAtEveryGroupSize) {
  // The RNG draw sequence is roster-independent: the only difference between
  // N = 2 and N = 4 plans for one seed is index clamping.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const FaultPlan n2 = FaultPlan::MultiFailure(seed, 1);
    const FaultPlan n3 = FaultPlan::MultiFailure(seed, 2);
    const FaultPlan n4 = FaultPlan::MultiFailure(seed, 3);
    EXPECT_EQ(n2.size(), n3.size()) << "seed " << seed;
    EXPECT_EQ(n3.size(), n4.size()) << "seed " << seed;
    // Clamping can only map a backup victim DOWN (backup2 -> backup); the
    // leader-involvement of a seed never changes with the roster.
    const bool li = FaultPlan::MultiFailureInvolvesLeader(seed);
    const bool n2_hits_leader = n2.str().find("crash:primary") != std::string::npos;
    EXPECT_EQ(li, n2_hits_leader) << "seed " << seed << ": " << n2.str();
  }
}

// A first, readable instance of the claim before the sweep hammers it:
// leader and the rank-1 backup die at the same instant mid-transfer; the
// rank-2 backup (backup2) must win the promotion race and finish the stream.
TEST(MultiFailureTest, LeaderAndRank1DieTogetherRank2FinishesTransfer) {
  ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.extra_backups = 1;  // 1 leader + 2 backups
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(20);
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 8'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(0), cell.service_port(), size);
  app::FileServer b2_app(cell.backup_stack(1), cell.service_port(), size);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  InvariantChecker::Options iopt;
  iopt.expected_bytes = size;
  InvariantChecker checker(*topo, iopt);

  topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(400)));
  topo->inject(Fault::Crash(Node::kBackup).at(sim::Duration::millis(400)));
  client.start();
  topo->run_for(sim::Duration::seconds(60));

  EXPECT_TRUE(client.complete()) << topo->world().trace().dump();
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  // backup2 — and only backup2 — promoted.
  EXPECT_EQ(topo->world().trace().count("backup2", "promoted"), 1u);
  EXPECT_EQ(topo->world().trace().count("promoted"), 1u);
  for (const Violation& v : checker.check(client)) {
    ADD_FAILURE() << "violated " << v.str();
  }
}

// The other leader-involving family: leader + rank-2 die together, leaving
// the rank-1 backup ALONE. Its ballot is vacuous (no surviving voters); the
// gateway ping is the whole quorum. It must still promote and finish.
TEST(MultiFailureTest, LeaderAndRank2DieTogetherRank1FinishesTransfer) {
  ScenarioConfig cfg;
  cfg.seed = 13;
  cfg.extra_backups = 1;
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(20);
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 8'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(0), cell.service_port(), size);
  app::FileServer b2_app(cell.backup_stack(1), cell.service_port(), size);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  InvariantChecker::Options iopt;
  iopt.expected_bytes = size;
  InvariantChecker checker(*topo, iopt);

  topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(400)));
  topo->inject(Fault::Crash(Node::kBackup2).at(sim::Duration::millis(400)));
  client.start();
  topo->run_for(sim::Duration::seconds(60));

  EXPECT_TRUE(client.complete()) << topo->world().trace().dump();
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  EXPECT_EQ(topo->world().trace().count("backup", "promoted"), 1u)
      << topo->world().trace().dump();
  for (const Violation& v : checker.check(client)) {
    ADD_FAILURE() << "violated " << v.str();
  }
}

// Backup + backup at the same instant: the leader keeps serving, unaffected;
// nobody promotes; nothing is client-visible.
TEST(MultiFailureTest, BothBackupsDieTogetherLeaderUnaffected) {
  ScenarioConfig cfg;
  cfg.seed = 12;
  cfg.extra_backups = 1;
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(20);
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 8'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(0), cell.service_port(), size);
  app::FileServer b2_app(cell.backup_stack(1), cell.service_port(), size);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  InvariantChecker::Options iopt;
  iopt.expected_bytes = size;
  InvariantChecker checker(*topo, iopt);

  topo->inject(Fault::Crash(Node::kBackup).at(sim::Duration::millis(400)));
  topo->inject(Fault::Crash(Node::kBackup2).at(sim::Duration::millis(400)));
  client.start();
  topo->run_for(sim::Duration::seconds(60));

  EXPECT_TRUE(client.complete()) << topo->world().trace().dump();
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(topo->world().trace().count("promoted"), 0u);
  EXPECT_EQ(topo->world().trace().count("takeover"), 0u);
  for (const Violation& v : checker.check(client)) {
    ADD_FAILURE() << "violated " << v.str();
  }
}

// The tentpole sweep: >= 200 simultaneous-double-failure schedules against a
// 1+2 group, zero invariant violations. SweepRunner parallelises; each seed
// is an independent World.
TEST(MultiFailureTest, SweepAtNThreeMasksEverySchedule) {
  const std::uint64_t seeds = env_u64("STTCP_MULTI_SEEDS", 200);
  SweepRunner runner;
  const auto verdicts =
      runner.map(static_cast<std::size_t>(seeds), [](std::size_t i) {
        return run_multi_failure_seed(static_cast<std::uint64_t>(i) + 1);
      });
  std::uint64_t failures = 0, promotions = 0, leader_schedules = 0;
  for (const MultiFailureVerdict& v : verdicts) {
    if (!v.ok()) {
      ++failures;
      ADD_FAILURE() << v.report();
    }
    if (!v.promotion_winner.empty()) ++promotions;
    if (v.leader_involved) ++leader_schedules;
  }
  EXPECT_EQ(failures, 0u) << failures << " of " << seeds << " seeds violated";
  // Every leader-involving schedule must have ended in a promotion; the
  // sweep exercised both schedule families.
  EXPECT_GE(promotions, leader_schedules);
  EXPECT_GT(leader_schedules, 0u);
  EXPECT_LT(leader_schedules, seeds);
}

// The negative control: the SAME schedules at N = 2 (classic pair). A
// leader-involving schedule kills leader + only backup — a total outage the
// pair cannot mask, and the verdict MUST say so. If this sweep ever starts
// passing, the positive sweep above has stopped measuring redundancy.
TEST(MultiFailureTest, NegativeControlPairFailsLeaderSchedules) {
  const std::uint64_t seeds = env_u64("STTCP_MULTI_NEG_SEEDS", 60);
  SweepRunner runner;
  const auto verdicts =
      runner.map(static_cast<std::size_t>(seeds), [](std::size_t i) {
        MultiFailureOptions opts;
        opts.backups = 1;
        return run_multi_failure_seed(static_cast<std::uint64_t>(i) + 1, opts);
      });
  std::uint64_t leader_schedules = 0;
  for (const MultiFailureVerdict& v : verdicts) {
    if (!v.leader_involved) continue;  // backup+backup collapses to a
                                       // survivable single crash at N = 2
    ++leader_schedules;
    EXPECT_FALSE(v.ok()) << "seed " << v.seed
                         << " masked a leader+backup double failure at N=2 — "
                            "the positive sweep is not measuring redundancy\n"
                         << v.report();
    EXPECT_FALSE(v.complete) << v.report();
  }
  EXPECT_GT(leader_schedules, 0u);
}

TEST(MultiFailureTest, SameSeedGivesBitIdenticalVerdict) {
  for (const std::uint64_t seed : {5ull, 23ull, 71ull}) {
    const MultiFailureVerdict a = run_multi_failure_seed(seed);
    const MultiFailureVerdict b = run_multi_failure_seed(seed);
    EXPECT_EQ(a.digest, b.digest) << "seed " << seed;
    EXPECT_EQ(a.plan, b.plan);
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.convicted, b.convicted);
    EXPECT_EQ(a.promotion_winner, b.promotion_winner);
    EXPECT_EQ(a.sim_ns, b.sim_ns);
  }
}

// One-command replay: STTCP_MULTI_SEED=<seed> ./multi_failure_test
// --gtest_filter='*ReplaySeed*' re-runs exactly the printed schedule.
TEST(MultiFailureTest, ReplaySeed) {
  const char* env = std::getenv("STTCP_MULTI_SEED");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "set STTCP_MULTI_SEED=<seed> to replay a schedule";
  }
  const MultiFailureVerdict v =
      run_multi_failure_seed(env_u64("STTCP_MULTI_SEED", 0));
  std::fputs(v.report().c_str(), stderr);
  EXPECT_TRUE(v.ok()) << v.report();
}

}  // namespace
}  // namespace sttcp::harness
