// StreamLogger (§4.3 output-commit extension) tests: codecs, passive
// capture, request serving, and the headline scenario — the primary dies
// while the backup still has a receive gap for client bytes the primary
// already acknowledged. Without the logger that is (per the paper)
// unrecoverable; with it, the backup refills the gap and the upload
// continues.
#include "sttcp/logger.h"

#include <gtest/gtest.h>

#include <memory>

#include "app/client.h"
#include "app/server.h"
#include "harness/topology.h"
#include "sttcp/endpoint.h"

namespace sttcp::sttcp {
namespace {
using harness::ScenarioConfig;
using harness::Topology;

TEST(LoggerCodecTest, RequestRoundTrip) {
  LoggerRequest q;
  q.client_ip = net::Ipv4Addr(10, 0, 0, 1);
  q.client_port = 49152;
  q.service_port = 80;
  q.offset = 0xabcdef01ull;
  q.length = 555;
  auto p = LoggerRequest::parse(q.serialize());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->client_ip, q.client_ip);
  EXPECT_EQ(p->client_port, q.client_port);
  EXPECT_EQ(p->service_port, q.service_port);
  EXPECT_EQ(p->offset, q.offset);
  EXPECT_EQ(p->length, q.length);
  EXPECT_FALSE(LoggerRequest::parse(net::to_bytes("junk")).has_value());
}

TEST(LoggerCodecTest, ReplyRoundTrip) {
  LoggerReply r;
  r.client_ip = net::Ipv4Addr(10, 0, 0, 1);
  r.client_port = 2;
  r.service_port = 80;
  r.offset = 77;
  r.data = net::to_bytes("salvaged");
  auto p = LoggerReply::parse(r.serialize());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->offset, 77u);
  EXPECT_EQ(p->data, net::to_bytes("salvaged"));
  EXPECT_FALSE(LoggerReply::parse(LoggerRequest{}.serialize()).has_value());
}

struct UploadRig {
  explicit UploadRig(const ScenarioConfig& cfg)
      : topo(harness::build_figure2(cfg)), cell(topo->cell()) {
    // With enable_logger the recipe adds the logger host; the §4.3 logger
    // runs on it.
    if (Topology::HostEntry* host = topo->host_by_name("logger")) {
      StreamLogger::Config lc;
      lc.service_ip = cell.service_ip();
      logger = std::make_unique<StreamLogger>(*host->host, lc);
    }
    p_app = std::make_unique<app::SinkServer>(cell.primary_stack(), cell.service_port(),
                                              /*verify=*/true);
    b_app = std::make_unique<app::SinkServer>(cell.backup_stack(), cell.service_port(),
                                              /*verify=*/true);
    tcp::TcpConnection::Callbacks cb;
    cb.on_established = [this] { pump(); };
    cb.on_writable = [this] { pump(); };
    cb.on_closed = [this](tcp::CloseReason) {
      conn = nullptr;
      failed = true;
    };
    Topology::HostEntry& client = *topo->host_by_name("client");
    conn = &client.stack->connect(client.ip, cell.connect_addr(), std::move(cb));
  }

  void pump() {
    while (conn != nullptr) {
      const std::size_t n = conn->send(app::pattern_bytes(sent, 8192));
      sent += n;
      if (n < 8192) break;
    }
  }

  std::unique_ptr<Topology> topo;
  harness::Cell& cell;
  std::unique_ptr<StreamLogger> logger;
  std::unique_ptr<app::SinkServer> p_app;
  std::unique_ptr<app::SinkServer> b_app;
  tcp::TcpConnection* conn = nullptr;
  std::uint64_t sent = 0;
  bool failed = false;
};

TEST(LoggerTest, PassiveCaptureTracksClientStream) {
  ScenarioConfig cfg;
  cfg.enable_logger = true;
  UploadRig rig(cfg);
  rig.topo->run_for(sim::Duration::seconds(1));
  ASSERT_NE(rig.logger, nullptr);
  // The logger saw the stream and logged (nearly) everything sent so far.
  EXPECT_GT(rig.logger->stats().bytes_logged, 5'000'000u);
  const std::uint64_t logged = rig.logger->logged_bytes(
      rig.conn->tuple().local.ip, rig.conn->tuple().local.port, rig.cell.service_port());
  EXPECT_GT(logged, 5'000'000u);
  EXPECT_LE(logged, rig.sent);
}

// The headline: gap + primary death. Frames toward the backup are dropped
// (data-only, heartbeats survive) and the primary is crashed while the
// backup still has the hole. The client will not retransmit those bytes —
// the dead primary acknowledged them.
void run_gap_then_crash(UploadRig& rig) {
  rig.topo->world().loop().schedule_after(sim::Duration::millis(300), [&rig] {
    rig.cell.backup_link().set_drop_filter(
        [](const net::Frame& f) { return f.size() > 300; });
  });
  rig.topo->world().loop().schedule_after(sim::Duration::millis(320), [&rig] {
    rig.cell.backup_link().set_drop_filter(nullptr);
    rig.cell.primary().crash("dies during the backup's catch-up window");
  });
  rig.topo->run_for(sim::Duration::seconds(8));
}

TEST(LoggerTest, GapPlusPrimaryDeathRecoveredViaLogger) {
  ScenarioConfig cfg;
  cfg.enable_logger = true;
  UploadRig rig(cfg);
  const std::uint64_t sent_before = [&] {
    rig.topo->run_for(sim::Duration::millis(300));
    return rig.sent;
  }();
  run_gap_then_crash(rig);

  const auto& tr = rig.topo->world().trace();
  EXPECT_EQ(tr.count("backup", "takeover"), 1u);
  EXPECT_GE(tr.count("backup", "logger_request"), 1u);
  EXPECT_GE(tr.count("logger", "logger_served"), 1u);
  EXPECT_GE(tr.count("backup", "logger_injected"), 1u);
  // The upload kept going well past the pre-crash volume, the connection
  // never failed, and the (verifying) backup app saw an intact stream.
  EXPECT_FALSE(rig.failed);
  EXPECT_GT(rig.sent, sent_before + 10'000'000u);
  EXPECT_FALSE(rig.b_app->corrupt());
  EXPECT_GT(rig.b_app->stats().bytes_read, sent_before);
}

TEST(LoggerTest, WithoutLoggerTheSameFailureIsUnrecoverable) {
  // The paper's stated limitation: "for other applications, ST-TCP treats
  // this failure as unrecoverable."
  ScenarioConfig cfg;
  cfg.enable_logger = false;
  UploadRig rig(cfg);
  rig.topo->run_for(sim::Duration::millis(300));
  run_gap_then_crash(rig);

  const auto& tr = rig.topo->world().trace();
  EXPECT_EQ(tr.count("backup", "takeover"), 1u);
  EXPECT_EQ(tr.count("backup", "logger_request"), 0u);
  // The stream is wedged: the hole spans more than the backup's receive
  // window, so the client's retransmissions (which start at the dead
  // primary's last ACK) cannot even enter the window, and the backup's
  // application never advances past the gap.
  tcp::TcpConnection* bconn = nullptr;
  rig.cell.backup_stack().for_each([&](tcp::TcpConnection& c) { bconn = &c; });
  ASSERT_NE(bconn, nullptr);
  const std::uint64_t wedged_at = bconn->bytes_received();
  EXPECT_LT(wedged_at + 300'000, rig.sent);  // a large unfillable hole remains
  rig.topo->run_for(sim::Duration::seconds(5));
  EXPECT_EQ(bconn->bytes_received(), wedged_at);  // and not moving
}

TEST(LoggerTest, LoggerIdleWhenNoFailure) {
  ScenarioConfig cfg;
  cfg.enable_logger = true;
  UploadRig rig(cfg);
  rig.topo->run_for(sim::Duration::seconds(2));
  // Capture happens; no requests are ever made.
  EXPECT_EQ(rig.logger->stats().requests_served, 0u);
  EXPECT_EQ(rig.topo->world().trace().count("logger_request"), 0u);
  EXPECT_FALSE(rig.failed);
}

TEST(LoggerTest, NormalTakeoverDoesNotNeedLogger) {
  // A clean crash with no gap: the logger is present but unused.
  ScenarioConfig cfg;
  cfg.enable_logger = true;
  UploadRig rig(cfg);
  rig.topo->inject(
      harness::Fault::Crash(harness::Node::kPrimary).at(sim::Duration::millis(500)));
  rig.topo->run_for(sim::Duration::seconds(10));
  EXPECT_EQ(rig.topo->world().trace().count("backup", "takeover"), 1u);
  EXPECT_EQ(rig.topo->world().trace().count("backup", "logger_injected"), 0u);
  EXPECT_FALSE(rig.failed);
  EXPECT_FALSE(rig.b_app->corrupt());
}

}  // namespace
}  // namespace sttcp::sttcp
