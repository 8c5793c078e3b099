// Reintegration: a failed-over pair returns to full fault tolerance while
// client transfers stay in flight.
//
//   crash one server ─► survivor runs alone (takeover / non-FT)
//   Fault::PowerOn    ─► rejoiner solicits a snapshot over the heartbeat
//   snapshot transfer ─► app checkpoint staged + replicas adopted mid-stream
//   ready/commit      ─► both endpoints back in kReplicating
//
// Covers: the happy path on an idle pair, mid-transfer revival with a second
// crash afterwards (the pair must survive it), snapshot retry under frame
// loss, PowerOn as a no-op on a live host, and checkpoint codec robustness.
#include <gtest/gtest.h>

#include "app/client.h"
#include "app/server.h"
#include "harness/topology.h"

namespace sttcp::harness {
namespace {

using Mode = sttcp::StTcpEndpoint::Mode;

void wire_checkpoints(Cell& cell, app::ServerApp& p_app, app::ServerApp& b_app) {
  cell.primary_endpoint()->set_checkpoint_provider(
      [&p_app] { return p_app.checkpoint(); });
  cell.primary_endpoint()->set_checkpoint_restorer(
      [&p_app](net::BytesView d) { p_app.stage_restore(d); });
  cell.backup_endpoint()->set_checkpoint_provider(
      [&b_app] { return b_app.checkpoint(); });
  cell.backup_endpoint()->set_checkpoint_restorer(
      [&b_app](net::BytesView d) { b_app.stage_restore(d); });
}

TEST(ReintegrationTest, RebootedBackupRejoinsIdlePair) {
  ScenarioConfig cfg;
  cfg.seed = 1;
  cfg.enable_metrics = true;
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 1'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 1'000'000);
  wire_checkpoints(cell, p_app, b_app);

  topo->inject(Fault::Crash(Node::kBackup).at(sim::Duration::millis(500)));
  topo->inject(Fault::PowerOn(Node::kBackup).at(sim::Duration::seconds(3)));
  topo->run_for(sim::Duration::seconds(6));

  const auto& tr = topo->world().trace();
  EXPECT_EQ(tr.count("primary", "non_ft_mode"), 1u) << tr.dump();
  EXPECT_EQ(tr.count("backup", "rejoin_start"), 1u);
  EXPECT_EQ(tr.count("primary", "reintegration_start"), 1u);
  EXPECT_EQ(tr.count("primary", "reintegration_complete"), 1u);
  EXPECT_EQ(tr.count("backup", "rejoin_complete"), 1u);
  EXPECT_TRUE(tr.strictly_before("reintegration_start", "reintegration_complete"));

  ASSERT_NE(cell.primary_endpoint(), nullptr);
  ASSERT_NE(cell.backup_endpoint(), nullptr);
  EXPECT_EQ(cell.primary_endpoint()->mode(), Mode::kReplicating);
  EXPECT_EQ(cell.backup_endpoint()->mode(), Mode::kReplicating);
  EXPECT_EQ(cell.primary_endpoint()->stats().reintegrations, 1u);
  EXPECT_EQ(cell.backup_endpoint()->stats().rejoins, 1u);

  // The timeline milestones ride along in the JSON export.
  const std::string json = topo->metrics_json();
  EXPECT_NE(json.find("reintegration_start"), std::string::npos) << json;
  EXPECT_NE(json.find("reintegration_complete"), std::string::npos) << json;
}

TEST(ReintegrationTest, RevivedPrimaryRejoinsMidTransferAndSurvivesSecondCrash) {
  ScenarioConfig cfg;
  cfg.seed = 2;
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 80'000'000;  // ~7 s at Fast Ethernet
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  wire_checkpoints(cell, p_app, b_app);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();

  // First failure: the primary dies mid-transfer; the backup takes over.
  topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(800)));
  // Revival: the old primary returns with blank RAM and rejoins as backup —
  // while the (now much further along) transfer keeps flowing.
  topo->inject(Fault::PowerOn(Node::kPrimary).at(sim::Duration::seconds(3)));

  const auto& tr = topo->world().trace();
  const sim::SimTime deadline = topo->world().now() + sim::Duration::seconds(8);
  while (tr.count("reintegration_complete") == 0 && topo->world().now() < deadline) {
    topo->run_for(sim::Duration::millis(100));
  }
  ASSERT_EQ(tr.count("backup", "reintegration_complete"), 1u) << tr.dump();
  ASSERT_EQ(tr.count("primary", "rejoin_complete"), 1u);
  EXPECT_FALSE(client.complete());  // the transfer really was still in flight
  // The mid-stream connection travelled in the snapshot and was adopted.
  EXPECT_GE(cell.primary_endpoint()->stats().snapshot_conns_adopted, 1u);
  EXPECT_EQ(cell.backup_endpoint()->mode(), Mode::kReplicating);
  EXPECT_EQ(cell.primary_endpoint()->mode(), Mode::kReplicating);

  // Second failure: the survivor of the first crash dies. The rejoined
  // ex-primary must take over and finish the transfer.
  topo->inject(Fault::Crash(Node::kBackup).at(sim::Duration::millis(300)));
  topo->run_for(sim::Duration::seconds(120));

  EXPECT_TRUE(client.complete()) << tr.dump();
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  EXPECT_EQ(client.received(), size);
  EXPECT_EQ(tr.count("backup", "takeover"), 1u);
  EXPECT_EQ(tr.count("primary", "takeover"), 1u);
  EXPECT_EQ(cell.primary_endpoint()->mode(), Mode::kTakenOver);
}

TEST(ReintegrationTest, SnapshotRetrySurvivesFrameLoss) {
  ScenarioConfig cfg;
  cfg.seed = 3;
  cfg.sttcp.reintegration_retry = sim::Duration::millis(150);
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 1'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 1'000'000);
  wire_checkpoints(cell, p_app, b_app);

  topo->inject(Fault::Crash(Node::kBackup).at(sim::Duration::millis(500)));
  // Burn the survivor's Ethernet frames exactly when the rejoiner comes
  // back: the rejoin request still arrives (serial heartbeat), but the
  // UDP snapshot is lost and must be re-sent until one lands.
  topo->inject(Fault::FrameLoss(Node::kPrimary, 30).at(sim::Duration::seconds(3)));
  topo->inject(Fault::PowerOn(Node::kBackup).at(sim::Duration::seconds(3)));
  topo->run_for(sim::Duration::seconds(15));

  const auto& tr = topo->world().trace();
  EXPECT_EQ(tr.count("primary", "reintegration_complete"), 1u) << tr.dump();
  EXPECT_GE(tr.count("primary", "snapshot_sent"), 2u);  // at least one retry
  EXPECT_EQ(cell.primary_endpoint()->mode(), Mode::kReplicating);
  EXPECT_EQ(cell.backup_endpoint()->mode(), Mode::kReplicating);
}

// --- replication groups (N = 3) -------------------------------------------

void wire_member_checkpoints(Cell& cell, int member, app::ServerApp& app) {
  sttcp::StTcpEndpoint* ep = member == 0 ? cell.primary_endpoint()
                                         : cell.backup_endpoint(member - 1);
  ep->set_checkpoint_provider([&app] { return app.checkpoint(); });
  ep->set_checkpoint_restorer(
      [&app](net::BytesView d) { app.stage_restore(d); });
}

// A convicted-and-revived leader rejoins a 1+2 group mid-transfer and
// re-enters at the LOWEST promotion rank: the group's survivors keep their
// seniority, the homecomer starts over at the back of the line.
TEST(GroupReintegrationTest, RevivedLeaderRejoinsAtLowestRankMidTransfer) {
  ScenarioConfig cfg;
  cfg.seed = 21;
  cfg.extra_backups = 1;
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 80'000'000;  // ~7 s at Fast Ethernet
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(0), cell.service_port(), size);
  app::FileServer b2_app(cell.backup_stack(1), cell.service_port(), size);
  wire_member_checkpoints(cell, 0, p_app);
  wire_member_checkpoints(cell, 1, b_app);
  wire_member_checkpoints(cell, 2, b2_app);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();

  topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(800)));
  topo->inject(Fault::PowerOn(Node::kPrimary).at(sim::Duration::seconds(3)));

  const auto& tr = topo->world().trace();
  const sim::SimTime deadline = topo->world().now() + sim::Duration::seconds(10);
  while (tr.count("primary", "rejoin_complete") == 0 &&
         topo->world().now() < deadline) {
    topo->run_for(sim::Duration::millis(100));
  }
  ASSERT_EQ(tr.count("primary", "rejoin_complete"), 1u) << tr.dump();
  EXPECT_FALSE(client.complete());  // the transfer really was still in flight

  // rank-1 (backup) won the promotion; backup2 kept rank 1; the homecoming
  // ex-leader is the junior member.
  EXPECT_EQ(tr.count("backup", "promoted"), 1u) << tr.dump();
  sttcp::StTcpEndpoint* leader = cell.backup_endpoint(0);
  ASSERT_NE(leader, nullptr);
  EXPECT_TRUE(leader->is_group_leader());
  EXPECT_EQ(leader->promotion_rank(), 0);
  EXPECT_EQ(cell.backup_endpoint(1)->promotion_rank(), 1);
  EXPECT_EQ(cell.primary_endpoint()->promotion_rank(), 2);
  EXPECT_EQ(cell.primary_endpoint()->mode(), Mode::kReplicating);

  // The group is back at full strength: let the transfer finish clean.
  topo->run_for(sim::Duration::seconds(120));
  EXPECT_TRUE(client.complete()) << tr.dump();
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
}

// A second member dies WHILE the leader is mid-snapshot serving a rejoiner:
// the group must keep masking — the stream never stalls past failover and
// the client finishes bit-exact.
TEST(GroupReintegrationTest, SecondFailureDuringSnapshotStillMasked) {
  ScenarioConfig cfg;
  cfg.seed = 22;
  cfg.extra_backups = 1;
  cfg.sttcp.reintegration_retry = sim::Duration::millis(200);
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 80'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(0), cell.service_port(), size);
  app::FileServer b2_app(cell.backup_stack(1), cell.service_port(), size);
  wire_member_checkpoints(cell, 0, p_app);
  wire_member_checkpoints(cell, 1, b_app);
  wire_member_checkpoints(cell, 2, b2_app);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();

  // backup2 dies and comes back; while its snapshot is (re)transferring, the
  // rank-1 backup dies too. The leader keeps serving the client throughout.
  topo->inject(Fault::Crash(Node::kBackup2).at(sim::Duration::millis(800)));
  topo->inject(Fault::PowerOn(Node::kBackup2).at(sim::Duration::seconds(3)));
  topo->inject(Fault::Crash(Node::kBackup).at(sim::Duration::millis(3050)));

  topo->run_for(sim::Duration::seconds(120));
  const auto& tr = topo->world().trace();
  EXPECT_TRUE(client.complete()) << tr.dump();
  EXPECT_FALSE(client.corrupt());
  EXPECT_EQ(client.connection_failures(), 0);
  EXPECT_EQ(client.received(), size);
  // The leader never lost the connection: no takeover, no promotion.
  EXPECT_EQ(tr.count("takeover"), 0u) << tr.dump();
  EXPECT_TRUE(cell.primary_endpoint()->is_group_leader());
  // backup2 made it back in (possibly after snapshot retries).
  EXPECT_EQ(tr.count("backup2", "rejoin_complete"), 1u) << tr.dump();
  EXPECT_EQ(cell.backup_endpoint(1)->mode(), Mode::kReplicating);
}

TEST(ReintegrationTest, PowerOnIsNoOpOnLiveHost) {
  ScenarioConfig cfg;
  cfg.seed = 4;
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 1'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 1'000'000);
  wire_checkpoints(cell, p_app, b_app);

  topo->inject(Fault::PowerOn(Node::kBackup).at(sim::Duration::millis(100)));
  topo->run_for(sim::Duration::seconds(2));

  const auto& tr = topo->world().trace();
  EXPECT_EQ(tr.count("rejoin_start"), 0u) << tr.dump();
  EXPECT_EQ(tr.count("host_boot"), 0u);
  EXPECT_EQ(cell.primary_endpoint()->mode(), Mode::kReplicating);
  EXPECT_EQ(cell.backup_endpoint()->mode(), Mode::kReplicating);
}

TEST(ReintegrationTest, CheckpointCodecIsRobust) {
  ScenarioConfig cfg;
  cfg.seed = 5;
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  const std::uint64_t size = 20'000'000;
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), size);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), size);
  app::DownloadClient::Options opt;
  opt.expected_bytes = size;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->run_for(sim::Duration::seconds(1));

  // Mid-transfer checkpoint carries the live connection's serve state.
  const net::Bytes snap = p_app.checkpoint();
  EXPECT_GT(snap.size(), 2u);

  // A valid checkpoint stages cleanly; garbage is rejected without throwing.
  b_app.stage_restore(snap);
  b_app.stage_restore(net::Bytes{0xff, 0x01, 0x02});
  b_app.stage_restore(net::Bytes{});
  topo->run_for(sim::Duration::seconds(5));
  EXPECT_TRUE(client.complete());
  EXPECT_FALSE(client.corrupt());
}

}  // namespace
}  // namespace sttcp::harness
