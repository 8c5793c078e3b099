// Chaos sweep: randomized single-failure schedules across seeds. For every
// seed, exactly one failure (random kind, random time) is injected into a
// running transfer. The invariant is absolute:
//   * the stream the client observes is NEVER corrupt, and
//   * a single failure is ALWAYS masked (download completes, zero
//     connection failures).
#include <gtest/gtest.h>

#include <memory>

#include "app/client.h"
#include "app/server.h"
#include "harness/topology.h"

namespace sttcp::harness {
namespace {

class ChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosTest, AnySingleFailureIsMasked) {
  const std::uint64_t seed = GetParam();
  sim::Rng dice(seed * 7919 + 13);

  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(20);
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 40'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();

  // Random injection: kind and time drawn from the seed. App-level faults
  // (hang, FIN/RST crash) ride through Fault::Custom so they stamp the same
  // fault_injected trace/timeline mark as the topology faults.
  const auto at = sim::Duration::millis(dice.range(50, 3000));
  const int kind = static_cast<int>(dice.below(8));
  Fault fault = Fault::Crash(Node::kPrimary);
  switch (kind) {
    case 0: fault = Fault::Crash(Node::kPrimary); break;
    case 1: fault = Fault::Crash(Node::kBackup); break;
    case 2:
      fault = Fault::Custom("app_hang:primary", [&](Topology&) { p_app.hang(); });
      break;
    case 3:
      fault = Fault::Custom("app_hang:backup", [&](Topology&) { b_app.hang(); });
      break;
    case 4:
      fault = Fault::Custom("app_fin_crash:primary",
                            [&](Topology&) { p_app.crash_clean(); });
      break;
    case 5:
      fault = Fault::Custom("app_rst_crash:backup",
                            [&](Topology&) { b_app.crash_abort(); });
      break;
    case 6: fault = Fault::NicFailure(Node::kPrimary); break;
    default:
      fault = Fault::FrameLoss(Node::kBackup, static_cast<int>(dice.range(1, 40)));
      break;
  }
  SCOPED_TRACE(fault.label() + " at " + at.str() + ", seed " + std::to_string(seed));
  topo->inject(fault.at(at));

  topo->run_for(sim::Duration::seconds(120));

  EXPECT_TRUE(client.complete()) << topo->world().trace().dump();
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  EXPECT_EQ(client.received(), size);
  // At most one failover action ever happens.
  const auto& tr = topo->world().trace();
  EXPECT_LE(tr.count("takeover") + tr.count("non_ft_mode"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest, ::testing::Range<std::uint64_t>(1, 25));

// Failover under ambient loss: the takeover machinery must work while the
// network itself is misbehaving (loss delays heartbeats, retransmissions
// and the announce/recovery protocols all at once).
class LossyFailoverTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossyFailoverTest, CrashMaskedDespiteRandomLoss) {
  const std::uint64_t seed = GetParam();
  ScenarioConfig cfg;
  cfg.seed = seed;
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  client_host.link->set_drop_probability(0.02);
  cell.primary_link().set_drop_probability(0.02);
  cell.backup_link().set_drop_probability(0.02);
  const std::uint64_t size = 10'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(500)));
  topo->run_for(sim::Duration::seconds(240));
  EXPECT_TRUE(client.complete()) << "seed " << seed;
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  EXPECT_EQ(topo->world().trace().count("backup", "takeover"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossyFailoverTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// Sequential-two-failure sweep: a random server crashes mid-transfer, comes
// back, reintegrates — and then the OTHER server (the survivor that carried
// the stream through the first failure) crashes too. With reintegration both
// failures must be masked: the stream is never corrupt, the client never
// reconnects, and the transfer completes on the twice-failed-over pair.
class TwoFailureChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TwoFailureChaosTest, SequentialFailuresAreBothMasked) {
  const std::uint64_t seed = GetParam();
  sim::Rng dice(seed * 104729 + 7);

  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.enable_metrics = true;
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(20);
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 100'000'000;  // ~8.5 s: both faults land mid-stream
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  cell.primary_endpoint()->set_checkpoint_provider([&] { return p_app.checkpoint(); });
  cell.primary_endpoint()->set_checkpoint_restorer(
      [&](net::BytesView d) { p_app.stage_restore(d); });
  cell.backup_endpoint()->set_checkpoint_provider([&] { return b_app.checkpoint(); });
  cell.backup_endpoint()->set_checkpoint_restorer(
      [&](net::BytesView d) { b_app.stage_restore(d); });
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();

  // First failure: a random server, at a random time. The other one survives.
  const Node first = dice.below(2) == 0 ? Node::kPrimary : Node::kBackup;
  const Node survivor = first == Node::kPrimary ? Node::kBackup : Node::kPrimary;
  const auto t1 = sim::Duration::millis(dice.range(300, 1500));
  SCOPED_TRACE(std::string("first crash ") + to_string(first) + " at " +
               t1.str() + ", seed " + std::to_string(seed));
  topo->inject(Fault::Crash(first).at(t1));
  topo->inject(Fault::PowerOn(first).at(t1 + sim::Duration::millis(2500)));

  const auto& tr = topo->world().trace();
  const sim::SimTime limit = topo->world().now() + sim::Duration::seconds(12);
  while (tr.count("reintegration_complete") == 0 && topo->world().now() < limit) {
    topo->run_for(sim::Duration::millis(100));
  }
  ASSERT_EQ(tr.count("reintegration_complete"), 1u) << tr.dump();
  // Both reintegration milestones made it into the exported timeline.
  const std::string json = topo->metrics_json();
  EXPECT_NE(json.find("reintegration_start"), std::string::npos) << json;
  EXPECT_NE(json.find("reintegration_complete"), std::string::npos) << json;

  // Second failure: the node that carried the stream through the first one.
  // Fresh timeline so the second failover decomposition stands alone.
  topo->metrics()->timeline().reset();
  topo->inject(Fault::Crash(survivor).at(sim::Duration::millis(dice.range(200, 1200))));
  topo->run_for(sim::Duration::seconds(120));

  EXPECT_TRUE(client.complete()) << tr.dump();
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  EXPECT_EQ(client.received(), size);
  // Exactly two failover actions across the whole run, zero client resets.
  EXPECT_EQ(tr.count("takeover") + tr.count("non_ft_mode"), 2u);
}

// Simultaneous variant: both failures land at the SAME instant, which no
// amount of reintegration can mask on a pair — so this one runs against a
// 1+2 group (extra_backups = 1) where the surviving member(s) carry the
// stream via rank-ordered promotion (docs/GROUPS.md). Two random distinct
// members, one random crash time; the full seeded-schedule sweep lives in
// integration_multi_failure_test.
TEST_P(TwoFailureChaosTest, SimultaneousFailuresAreMaskedAtGroupSizeThree) {
  const std::uint64_t seed = GetParam();
  sim::Rng dice(seed * 104729 + 13);

  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.extra_backups = 1;
  cfg.sttcp.max_delay_fin = sim::Duration::seconds(20);
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 30'000'000;  // ~2.5 s: the latest crash is mid-stream
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  std::vector<std::unique_ptr<app::FileServer>> b_apps;
  for (int b = 0; b < cell.backup_count(); ++b) {
    b_apps.push_back(std::make_unique<app::FileServer>(
        cell.backup_stack(b), cell.service_port(), size));
  }
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();

  const Node members[] = {Node::kPrimary, Node::kBackup, Node::kBackup2};
  const std::uint64_t a = dice.below(3);
  const std::uint64_t b = (a + 1 + dice.below(2)) % 3;
  const auto when = sim::Duration::millis(dice.range(300, 1500));
  SCOPED_TRACE(std::string("crash ") + to_string(members[a]) + "+" +
               to_string(members[b]) + " at " + when.str() + ", seed " +
               std::to_string(seed));
  topo->inject(Fault::Crash(members[a]).at(when));
  topo->inject(Fault::Crash(members[b]).at(when));
  topo->run_for(sim::Duration::seconds(120));

  const auto& tr = topo->world().trace();
  EXPECT_TRUE(client.complete()) << tr.dump();
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  EXPECT_EQ(client.received(), size);
  const bool leader_died = a == 0 || b == 0;
  if (leader_died) {
    // Some surviving member won the promotion race exactly once.
    EXPECT_EQ(tr.count("promoted"), 1u) << tr.dump();
  } else {
    // Both backups died: the leader keeps serving, nobody promotes.
    EXPECT_EQ(tr.count("promoted"), 0u);
    EXPECT_EQ(tr.count("takeover"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoFailureChaosTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace sttcp::harness
