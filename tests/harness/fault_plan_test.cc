// FaultPlan API: factories, timing builders, repeats, flaps, plans, the
// fault_injected trace/timeline stamping, and the deprecated wrappers (this
// test is their only remaining caller — everything else uses inject()).
#include "harness/fault.h"

#include <gtest/gtest.h>

#include "app/client.h"
#include "app/server.h"
#include "harness/topology.h"

namespace sttcp::harness {
namespace {

using namespace sim::literals;

TEST(FaultTest, FactoriesCarryLabels) {
  EXPECT_EQ(Fault::Crash(Node::kPrimary).label(), "crash:primary");
  EXPECT_EQ(Fault::NicFailure(Node::kBackup).label(), "nic_failure:backup");
  EXPECT_EQ(Fault::SerialCut().label(), "serial_cut");
  EXPECT_EQ(Fault::FrameLoss(Node::kClient, 3).label(), "frame_loss:client");
  EXPECT_EQ(Fault::LinkFlap(Node::kGateway, 100_ms).label(), "link_flap:gateway");
  EXPECT_EQ(Fault::Custom("boom", [](Topology&) {}).label(), "boom");
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
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  topo->inject(Fault::Crash(Node::kPrimary).at(100_ms));
  topo->run_for(99_ms);
  EXPECT_TRUE(cell.primary().alive());
  topo->run_for(2_ms);
  EXPECT_FALSE(cell.primary().alive());
  EXPECT_EQ(topo->world().trace().count("harness", "fault_injected"), 1u);
}

TEST(FaultPlanTest, RepeatSchedulesEveryOccurrence) {
  auto topo = build_figure2({});
  topo->inject(Fault::FrameLoss(Node::kBackup, 1).at(10_ms).repeat(4, 20_ms));
  topo->run_for(1_s);
  EXPECT_EQ(topo->world().trace().count("harness", "fault_injected"), 4u);
  EXPECT_EQ(topo->world().trace().count("backup", "frame_drop_burst"), 4u);
}

TEST(FaultPlanTest, LinkFlapGoesDownThenUp) {
  auto topo = build_figure2({});
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  topo->inject(Fault::LinkFlap(Node::kClient, 50_ms).at(10_ms));
  topo->run_for(30_ms);
  EXPECT_TRUE(client_host.link->failed());
  topo->run_for(40_ms);
  EXPECT_FALSE(client_host.link->failed());
  EXPECT_EQ(topo->world().trace().count("client", "link_down"), 1u);
  EXPECT_EQ(topo->world().trace().count("client", "link_up"), 1u);
}

TEST(FaultPlanTest, SerialCutAndRestore) {
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  topo->inject(Fault::SerialCut().at(10_ms));
  topo->inject(Fault::SerialRestore().at(30_ms));
  topo->run_for(20_ms);
  EXPECT_TRUE(cell.serial().failed());
  topo->run_for(20_ms);
  EXPECT_FALSE(cell.serial().failed());
}

TEST(FaultPlanTest, NicFailureAndRestore) {
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  topo->inject(FaultPlan{Fault::NicFailure(Node::kBackup).at(10_ms),
                      Fault::NicRestore(Node::kBackup).at(30_ms)});
  topo->run_for(20_ms);
  EXPECT_TRUE(cell.backup().nic().failed());
  topo->run_for(20_ms);
  EXPECT_FALSE(cell.backup().nic().failed());
}

TEST(FaultPlanTest, PlanInjectsSerialFaultSequence) {
  auto topo = build_figure2({});
  FaultPlan plan;
  plan.add(Fault::LinkDown(Node::kGateway).at(10_ms))
      .add(Fault::LinkUp(Node::kGateway).at(20_ms))
      .add(Fault::Crash(Node::kBackup).at(30_ms));
  EXPECT_EQ(plan.faults().size(), 3u);
  topo->inject(plan);
  topo->run_for(50_ms);
  EXPECT_FALSE(topo->host_by_name("gateway")->link->failed());
  EXPECT_FALSE(topo->cell().backup().alive());
  EXPECT_EQ(topo->world().trace().count("harness", "fault_injected"), 3u);
}

TEST(FaultPlanTest, CustomFaultSeesTheScenario) {
  auto topo = build_figure2({});
  bool fired = false;
  topo->inject(Fault::Custom("probe", [&fired](Topology& s) {
              fired = true;
              EXPECT_TRUE(s.cell().primary().alive());
            }).at(5_ms));
  topo->run_for(10_ms);
  EXPECT_TRUE(fired);
}

TEST(FaultPlanTest, InjectStampsTimelineWhenMetricsEnabled) {
  ScenarioConfig cfg;
  cfg.enable_metrics = true;
  auto topo = build_figure2(cfg);
  topo->inject(Fault::Crash(Node::kPrimary).at(40_ms));
  topo->run_for(100_ms);
  ASSERT_NE(topo->metrics(), nullptr);
  const auto mark = topo->metrics()->timeline().at(obs::Milestone::kFaultInjected);
  ASSERT_TRUE(mark.has_value());
  EXPECT_EQ(*mark, sim::SimTime::zero() + 40_ms);
}

TEST(FaultPlanTest, EveryInjectionTakesEffectAndIsStamped) {
  // One scenario takes a NIC failure, a serial cut, a frame-loss burst and a
  // crash; each lands and each leaves its own fault_injected stamp.
  auto topo = build_figure2({});
  topo->inject(Fault::NicFailure(Node::kBackup).at(10_ms));
  topo->inject(Fault::SerialCut().at(20_ms));
  topo->inject(Fault::FrameLoss(Node::kBackup, 5).at(30_ms));
  topo->inject(Fault::Crash(Node::kBackup).at(40_ms));
  topo->run_for(60_ms);
  EXPECT_TRUE(topo->cell().backup().nic().failed());
  EXPECT_TRUE(topo->cell().serial().failed());
  EXPECT_FALSE(topo->cell().backup().alive());
  EXPECT_EQ(topo->world().trace().count("harness", "fault_injected"), 4u);

  // Out-of-order registration: the crash fires after the NIC failure.
  auto topo2 = build_figure2({});
  topo2->inject(Fault::Crash(Node::kPrimary).at(5_ms));
  topo2->inject(Fault::NicFailure(Node::kPrimary).at(1_ms));
  topo2->run_for(10_ms);
  EXPECT_TRUE(topo2->cell().primary().nic().failed());
  EXPECT_FALSE(topo2->cell().primary().alive());
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
    auto topo = build_figure2(cfg);
    Cell& cell = topo->cell();
    Topology::HostEntry& client_host = *topo->host_by_name("client");
    app::FileServer p_app(cell.primary_stack(), cell.service_port(), 2'000'000);
    app::FileServer b_app(cell.backup_stack(), cell.service_port(), 2'000'000);
    app::DownloadClient::Options opt;
    opt.expected_bytes = 2'000'000;
    app::DownloadClient client(*client_host.stack, client_host.ip,
                               {cell.connect_addr()}, opt);
    client.start();
    topo->inject(Fault::Crash(Node::kPrimary).at(100_ms));
    topo->run_for(sim::Duration::seconds(30));
    EXPECT_TRUE(client.complete());
    EXPECT_FALSE(client.corrupt());
    EXPECT_EQ(client.connection_failures(), 0);
  }
}

}  // namespace
}  // namespace sttcp::harness
