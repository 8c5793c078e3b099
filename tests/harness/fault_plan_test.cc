// FaultPlan API: factories, timing builders, repeats, flaps, plans, the
// fault_injected trace/timeline stamping, and the deprecated wrappers (this
// test is their only remaining caller — everything else uses inject()).
#include "harness/fault.h"

#include <gtest/gtest.h>

#include "app/client.h"
#include "app/server.h"
#include "harness/scenario.h"

namespace sttcp::harness {
namespace {

using namespace sim::literals;

TEST(FaultTest, FactoriesCarryLabels) {
  EXPECT_EQ(Fault::Crash(Node::kPrimary).label(), "crash:primary");
  EXPECT_EQ(Fault::NicFailure(Node::kBackup).label(), "nic_failure:backup");
  EXPECT_EQ(Fault::SerialCut().label(), "serial_cut");
  EXPECT_EQ(Fault::FrameLoss(Node::kClient, 3).label(), "frame_loss:client");
  EXPECT_EQ(Fault::LinkFlap(Node::kGateway, 100_ms).label(), "link_flap:gateway");
  EXPECT_EQ(Fault::Custom("boom", [](Scenario&) {}).label(), "boom");
}

TEST(FaultTest, BuildersComposeByValue) {
  const Fault base = Fault::Crash(Node::kPrimary);
  const Fault timed = base.at(2_s).repeat(3, 500_ms);
  EXPECT_EQ(base.when(), sim::Duration::zero());
  EXPECT_EQ(base.times(), 1);
  EXPECT_EQ(timed.when(), 2_s);
  EXPECT_EQ(timed.times(), 3);
  EXPECT_EQ(timed.interval(), 500_ms);
}

TEST(FaultPlanTest, CrashFiresAtTheRequestedTime) {
  Scenario sc{ScenarioConfig{}};
  sc.inject(Fault::Crash(Node::kPrimary).at(100_ms));
  sc.run_for(99_ms);
  EXPECT_TRUE(sc.primary().alive());
  sc.run_for(2_ms);
  EXPECT_FALSE(sc.primary().alive());
  EXPECT_EQ(sc.world().trace().count("harness", "fault_injected"), 1u);
}

TEST(FaultPlanTest, RepeatSchedulesEveryOccurrence) {
  Scenario sc{ScenarioConfig{}};
  sc.inject(Fault::FrameLoss(Node::kBackup, 1).at(10_ms).repeat(4, 20_ms));
  sc.run_for(1_s);
  EXPECT_EQ(sc.world().trace().count("harness", "fault_injected"), 4u);
  EXPECT_EQ(sc.world().trace().count("backup", "frame_drop_burst"), 4u);
}

TEST(FaultPlanTest, LinkFlapGoesDownThenUp) {
  Scenario sc{ScenarioConfig{}};
  sc.inject(Fault::LinkFlap(Node::kClient, 50_ms).at(10_ms));
  sc.run_for(30_ms);
  EXPECT_TRUE(sc.client_link().failed());
  sc.run_for(40_ms);
  EXPECT_FALSE(sc.client_link().failed());
  EXPECT_EQ(sc.world().trace().count("client", "link_down"), 1u);
  EXPECT_EQ(sc.world().trace().count("client", "link_up"), 1u);
}

TEST(FaultPlanTest, SerialCutAndRestore) {
  Scenario sc{ScenarioConfig{}};
  sc.inject(Fault::SerialCut().at(10_ms));
  sc.inject(Fault::SerialRestore().at(30_ms));
  sc.run_for(20_ms);
  EXPECT_TRUE(sc.serial().failed());
  sc.run_for(20_ms);
  EXPECT_FALSE(sc.serial().failed());
}

TEST(FaultPlanTest, NicFailureAndRestore) {
  Scenario sc{ScenarioConfig{}};
  sc.inject(FaultPlan{Fault::NicFailure(Node::kBackup).at(10_ms),
                      Fault::NicRestore(Node::kBackup).at(30_ms)});
  sc.run_for(20_ms);
  EXPECT_TRUE(sc.backup().nic().failed());
  sc.run_for(20_ms);
  EXPECT_FALSE(sc.backup().nic().failed());
}

TEST(FaultPlanTest, PlanInjectsSerialFaultSequence) {
  Scenario sc{ScenarioConfig{}};
  FaultPlan plan;
  plan.add(Fault::LinkDown(Node::kGateway).at(10_ms))
      .add(Fault::LinkUp(Node::kGateway).at(20_ms))
      .add(Fault::Crash(Node::kBackup).at(30_ms));
  EXPECT_EQ(plan.faults().size(), 3u);
  sc.inject(plan);
  sc.run_for(50_ms);
  EXPECT_FALSE(sc.gateway_link().failed());
  EXPECT_FALSE(sc.backup().alive());
  EXPECT_EQ(sc.world().trace().count("harness", "fault_injected"), 3u);
}

TEST(FaultPlanTest, CustomFaultSeesTheScenario) {
  Scenario sc{ScenarioConfig{}};
  bool fired = false;
  sc.inject(Fault::Custom("probe", [&fired](Scenario& s) {
              fired = true;
              EXPECT_TRUE(s.primary().alive());
            }).at(5_ms));
  sc.run_for(10_ms);
  EXPECT_TRUE(fired);
}

TEST(FaultPlanTest, InjectStampsTimelineWhenMetricsEnabled) {
  ScenarioConfig cfg;
  cfg.enable_metrics = true;
  Scenario sc(std::move(cfg));
  sc.inject(Fault::Crash(Node::kPrimary).at(40_ms));
  sc.run_for(100_ms);
  ASSERT_NE(sc.metrics(), nullptr);
  const auto mark = sc.metrics()->timeline().at(obs::Milestone::kFaultInjected);
  ASSERT_TRUE(mark.has_value());
  EXPECT_EQ(*mark, sim::SimTime::zero() + 40_ms);
}

TEST(FaultPlanTest, EveryInjectionTakesEffectAndIsStamped) {
  // One scenario takes a NIC failure, a serial cut, a frame-loss burst and a
  // crash; each lands and each leaves its own fault_injected stamp.
  Scenario sc{ScenarioConfig{}};
  sc.inject(Fault::NicFailure(Node::kBackup).at(10_ms));
  sc.inject(Fault::SerialCut().at(20_ms));
  sc.inject(Fault::FrameLoss(Node::kBackup, 5).at(30_ms));
  sc.inject(Fault::Crash(Node::kBackup).at(40_ms));
  sc.run_for(60_ms);
  EXPECT_TRUE(sc.backup().nic().failed());
  EXPECT_TRUE(sc.serial().failed());
  EXPECT_FALSE(sc.backup().alive());
  EXPECT_EQ(sc.world().trace().count("harness", "fault_injected"), 4u);

  // Out-of-order registration: the crash fires after the NIC failure.
  Scenario sc2{ScenarioConfig{}};
  sc2.inject(Fault::Crash(Node::kPrimary).at(5_ms));
  sc2.inject(Fault::NicFailure(Node::kPrimary).at(1_ms));
  sc2.run_for(10_ms);
  EXPECT_TRUE(sc2.primary().nic().failed());
  EXPECT_FALSE(sc2.primary().alive());
}

TEST(ScenarioConfigTest, PresetsMatchTheirFabric) {
  const ScenarioConfig paper = ScenarioConfig::Paper2005();
  EXPECT_EQ(paper.link_bandwidth_bps, 100'000'000u);
  EXPECT_EQ(paper.serial_baud, 115200u);
  EXPECT_EQ(paper.sttcp.hb_period, 200_ms);

  const ScenarioConfig fast = ScenarioConfig::FastNet();
  EXPECT_EQ(fast.link_bandwidth_bps, 1'000'000'000u);
  EXPECT_EQ(fast.sttcp.hb_period, 50_ms);
  EXPECT_LT(fast.link_latency, paper.link_latency);

  // Both presets drive a masked failover end to end.
  for (const ScenarioConfig& preset : {paper, fast}) {
    ScenarioConfig cfg = preset;
    Scenario sc(std::move(cfg));
    app::FileServer p_app(sc.primary_stack(), sc.service_port(), 2'000'000);
    app::FileServer b_app(sc.backup_stack(), sc.service_port(), 2'000'000);
    app::DownloadClient::Options opt;
    opt.expected_bytes = 2'000'000;
    app::DownloadClient client(sc.client_stack(), sc.client_ip(),
                               {sc.connect_addr()}, opt);
    client.start();
    sc.inject(Fault::Crash(Node::kPrimary).at(100_ms));
    sc.run_for(sim::Duration::seconds(30));
    EXPECT_TRUE(client.complete());
    EXPECT_FALSE(client.corrupt());
    EXPECT_EQ(client.connection_failures(), 0);
  }
}

}  // namespace
}  // namespace sttcp::harness
