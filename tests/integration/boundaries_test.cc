// Scope boundaries and double failures — what ST-TCP explicitly does NOT
// promise (crash model, single-failure assumption), pinned down so the
// behaviour is at least deterministic and safe.
#include <gtest/gtest.h>

#include <memory>

#include "app/client.h"
#include "app/server.h"
#include "harness/topology.h"

namespace sttcp::harness {
namespace {

TEST(BoundariesTest, BothHeartbeatLinksDeadIsSplitBrainButOneSurvives) {
  // A double failure (IP path AND serial cable) violates the paper's
  // single-failure assumption: each server believes the other is dead and
  // reaches for the power switch. The out-of-band power controller
  // serializes the STONITH commands, so exactly one server survives — a
  // safe (if degraded) outcome rather than dual-active.
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 40'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 40'000'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 40'000'000;
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();

  // Kill only the heartbeat paths: HB UDP frames are small; the serial
  // link dies entirely. Data to/from the client keeps flowing.
  topo->world().loop().schedule_after(sim::Duration::millis(500), [&cell] {
    cell.serial().fail();
    auto hb_only = [](const net::Frame& frame) {
      // UDP heartbeats are small frames; TCP data/acks pass.
      return frame.size() < 300 && frame.size() > 60;
    };
    // Note: this also eats small TCP acks — crude, but it reliably kills
    // the HB exchange while the bulk data path survives via retransmission.
    cell.primary_link().set_drop_filter(hb_only);
  });
  topo->run_for(sim::Duration::seconds(30));

  // Exactly one server is still alive.
  const int alive = (cell.primary().alive() ? 1 : 0) + (cell.backup().alive() ? 1 : 0);
  EXPECT_EQ(alive, 1);
  EXPECT_GE(topo->power().power_off_count(), 1u);
  // No dual-active: at most one of {takeover, non-FT} happened.
  const auto& tr = topo->world().trace();
  EXPECT_LE(tr.count("takeover") + tr.count("non_ft_mode"), 1u);
}

TEST(BoundariesTest, DoubleCrashIsNotMasked) {
  // Both servers die: the client's connection must fail (a double failure
  // is outside the fault model) — but cleanly, via timeout, not silently.
  ScenarioConfig cfg;
  cfg.tcp.max_retries = 6;
  auto topo = build_figure2(cfg);
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer p_app(cell.primary_stack(), cell.service_port(), 40'000'000);
  app::FileServer b_app(cell.backup_stack(), cell.service_port(), 40'000'000);
  app::DownloadClient::Options opt;
  opt.expected_bytes = 40'000'000;
  opt.stall_timeout = sim::Duration::seconds(5);
  app::DownloadClient client(*client_host.stack, client_host.ip,
                             {cell.connect_addr()}, opt);
  client.start();
  topo->inject(Fault::Crash(Node::kPrimary).at(sim::Duration::millis(400)));
  topo->inject(Fault::Crash(Node::kBackup).at(sim::Duration::millis(450)));
  topo->run_for(sim::Duration::seconds(60));
  EXPECT_FALSE(client.complete());
  EXPECT_GE(client.connection_failures(), 1);
}

TEST(BoundariesTest, NonServicePortsAreServedButNotReplicated) {
  // Only the configured service is replicated. A second application on a
  // different port works through the primary's own address like any plain
  // TCP service — and dies with the primary.
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::FileServer svc_p(cell.primary_stack(), cell.service_port(), 1'000'000);
  app::FileServer svc_b(cell.backup_stack(), cell.service_port(), 1'000'000);
  app::FileServer other_p(cell.primary_stack(), 8080, 1'000'000);

  // Replicated service download through the virtual address.
  app::DownloadClient::Options opt;
  opt.expected_bytes = 1'000'000;
  app::DownloadClient svc_client(*client_host.stack, client_host.ip,
                                 {cell.connect_addr()}, opt);
  svc_client.start();
  // Unreplicated service through the primary's own address.
  app::DownloadClient other_client(
      *client_host.stack, client_host.ip,
      {net::SocketAddr{cell.primary_ip(), 8080}}, opt);
  other_client.start();
  topo->run_for(sim::Duration::seconds(5));
  EXPECT_TRUE(svc_client.complete());
  EXPECT_TRUE(other_client.complete());
  // Only the service connection was replicated.
  EXPECT_EQ(topo->world().trace().count("backup", "replica_created"), 1u);
}

TEST(BoundariesTest, LateClientRetransmitAfterTakeoverIsHandled) {
  // Segments from "before the failover" arriving after it (delayed client
  // retransmissions) must be treated as ordinary duplicates by the backup.
  auto topo = build_figure2({});
  Cell& cell = topo->cell();
  Topology::HostEntry& client_host = *topo->host_by_name("client");
  app::StreamServer p_app(cell.primary_stack(), cell.service_port(), 2000);
  app::StreamServer b_app(cell.backup_stack(), cell.service_port(), 2000);
  app::StreamClient client(*client_host.stack, client_host.ip, cell.connect_addr(),
                           2000, 8);
  client.start();
  topo->run_for(sim::Duration::millis(400));
  // Crash the primary *while* dropping some client frames so the client has
  // unacknowledged data it will retransmit into the post-takeover world.
  topo->world().loop().schedule_after(sim::Duration::zero(), [&cell] {
    cell.primary_link().drop_next(4);
    cell.backup_link().drop_next(4);
    cell.primary().crash("with client data in flight");
  });
  topo->run_for(sim::Duration::seconds(20));
  EXPECT_EQ(topo->world().trace().count("backup", "takeover"), 1u);
  EXPECT_FALSE(client.corrupt());
  EXPECT_FALSE(client.closed());
  EXPECT_GT(client.records_completed(), 200u);
}

}  // namespace
}  // namespace sttcp::harness
