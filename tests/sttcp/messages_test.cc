#include "sttcp/messages.h"

#include <gtest/gtest.h>

#include "net/checksum.h"
#include "sim/random.h"

namespace sttcp::sttcp {
namespace {

HbRecord sample_record(std::uint16_t id) {
  HbRecord r;
  r.repl_id = id;
  r.bytes_received = 0x1'00000123ull;  // only low 32 bits travel
  r.acked_by_peer = 456;
  r.app_written = 789;
  r.app_read = 1011;
  return r;
}

TEST(HeartbeatMsgTest, RoundTripEmpty) {
  HeartbeatMsg m;
  m.role = Role::kBackup;
  m.hb_seq = 42;
  auto p = HeartbeatMsg::parse(m.serialize());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->role, Role::kBackup);
  EXPECT_EQ(p->hb_seq, 42u);
  EXPECT_TRUE(p->records.empty());
  EXPECT_FALSE(p->ping_valid);
  EXPECT_FALSE(p->app_suspect);
}

TEST(HeartbeatMsgTest, RoundTripRecords) {
  HeartbeatMsg m;
  m.role = Role::kPrimary;
  m.records.push_back(sample_record(1));
  m.records.push_back(sample_record(2));
  m.records[1].fin_generated = true;
  m.records[1].closed = true;
  auto p = HeartbeatMsg::parse(m.serialize());
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->records.size(), 2u);
  EXPECT_EQ(p->records[0].repl_id, 1);
  // Wire carries the low 32 bits.
  EXPECT_EQ(p->records[0].bytes_received, 0x123u);
  EXPECT_EQ(p->records[0].acked_by_peer, 456u);
  EXPECT_FALSE(p->records[0].fin_generated);
  EXPECT_TRUE(p->records[1].fin_generated);
  EXPECT_TRUE(p->records[1].closed);
  EXPECT_FALSE(p->records[1].rst_generated);
}

TEST(HeartbeatMsgTest, AnnounceFieldsRoundTrip) {
  HeartbeatMsg m;
  HbRecord r = sample_record(7);
  r.announce = true;
  r.established = true;
  r.client_ip = net::Ipv4Addr(10, 0, 0, 1);
  r.client_port = 49152;
  r.local_port = 80;
  r.iss = 0xdeadbeef;
  r.irs = 0x12345678;
  m.records.push_back(r);
  auto p = HeartbeatMsg::parse(m.serialize());
  ASSERT_TRUE(p.has_value());
  const HbRecord& q = p->records[0];
  EXPECT_TRUE(q.announce);
  EXPECT_TRUE(q.established);
  EXPECT_EQ(q.client_ip, net::Ipv4Addr(10, 0, 0, 1));
  EXPECT_EQ(q.client_port, 49152);
  EXPECT_EQ(q.local_port, 80);
  EXPECT_EQ(q.iss, 0xdeadbeefu);
  EXPECT_EQ(q.irs, 0x12345678u);
}

TEST(HeartbeatMsgTest, PingAndSuspectFlags) {
  HeartbeatMsg m;
  m.ping_valid = true;
  m.ping_ok = false;
  m.app_suspect = true;
  auto p = HeartbeatMsg::parse(m.serialize());
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->ping_valid);
  EXPECT_FALSE(p->ping_ok);
  EXPECT_TRUE(p->app_suspect);
}

TEST(HeartbeatMsgTest, SteadyStateRecordIsUnder20Bytes) {
  // The paper's sizing claim: "The HB is less than 20 bytes per TCP
  // connection" — that is what lets ~100 connections share a 115.2 kbps
  // serial link at a 200 ms heartbeat.
  HeartbeatMsg base;
  const std::size_t empty = base.serialize().size();
  base.records.push_back(sample_record(1));
  const std::size_t one = base.serialize().size();
  EXPECT_LT(one - empty, 20u);
  EXPECT_EQ(one - empty, sample_record(1).wire_size());
  // 100 connections at 5 HB/s must fit in 115200/10 bytes/s.
  const std::size_t hb_100 = empty + 100 * (one - empty);
  EXPECT_LT(hb_100 * 5 * 10, 115200u);
}

TEST(HeartbeatMsgTest, GarbageRejected) {
  EXPECT_FALSE(HeartbeatMsg::parse(net::to_bytes("not a heartbeat")).has_value());
  EXPECT_FALSE(HeartbeatMsg::parse(net::Bytes{}).has_value());
  // Truncated records.
  HeartbeatMsg m;
  m.records.push_back(sample_record(1));
  net::Bytes w = m.serialize();
  w.resize(w.size() - 5);
  EXPECT_FALSE(HeartbeatMsg::parse(w).has_value());
}

TEST(HeartbeatMsgTest, EveryTruncationIsRejected) {
  // The RS-232 line can cut a message anywhere; no prefix of a valid
  // heartbeat may parse (the trailing checksum covers the full length).
  HeartbeatMsg m;
  m.role = Role::kPrimary;
  m.hb_seq = 7;
  m.records.push_back(sample_record(1));
  HbRecord ann = sample_record(2);
  ann.announce = true;
  m.records.push_back(ann);
  const net::Bytes full = m.serialize();
  ASSERT_TRUE(HeartbeatMsg::parse(full).has_value());
  for (std::size_t n = 0; n < full.size(); ++n) {
    net::Bytes cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_FALSE(HeartbeatMsg::parse(cut).has_value()) << "prefix length " << n;
  }
}

TEST(HeartbeatMsgTest, EverySingleBitFlipIsRejected) {
  // A serial line has no FCS, so the codec's own checksum is the only thing
  // between line noise and garbage progress counters reaching arbitration.
  HeartbeatMsg m;
  m.role = Role::kBackup;
  m.hb_seq = 12345;
  m.ping_valid = true;
  m.records.push_back(sample_record(3));
  const net::Bytes full = m.serialize();
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      net::Bytes flipped = full;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto p = HeartbeatMsg::parse(flipped);
      EXPECT_FALSE(p.has_value()) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(HeartbeatMsgTest, RandomGarbageNeverParsesOrThrows) {
  // Pure fuzz: no byte string that is not a well-formed heartbeat may crash,
  // throw, or (modulo the 1-in-2^16 checksum odds, which the fixed seed
  // pins) be accepted.
  sim::Rng rng(2026);
  for (int trial = 0; trial < 5000; ++trial) {
    net::Bytes junk(rng.below(64), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    ASSERT_NO_THROW({
      const auto p = HeartbeatMsg::parse(junk);
      EXPECT_FALSE(p.has_value()) << "trial " << trial;
    });
  }
}

TEST(HeartbeatMsgTest, ImpossibleRecordCountRejected) {
  // A count field promising more records than the remaining bytes could ever
  // hold must be rejected before any allocation happens. The checksum is
  // re-patched so this exercises the count guard, not the checksum guard.
  HeartbeatMsg m;
  net::Bytes w = m.serialize();
  w[w.size() - 2] = 0xff;  // count = 0xff00
  w[w.size() - 1] = 0x00;
  w[1] = 0;
  w[2] = 0;
  const std::uint16_t c = net::internet_checksum(net::BytesView(w).subspan(1));
  w[1] = static_cast<std::uint8_t>(c >> 8);
  w[2] = static_cast<std::uint8_t>(c);
  EXPECT_FALSE(HeartbeatMsg::parse(w).has_value());
}

TEST(HeartbeatMsgTest, GroupBlockRoundTripsAndRejectsRepeatedMembers) {
  HeartbeatMsg m;
  m.group_valid = true;
  m.member = 2;
  m.view_epoch = 7;
  m.view_order = {2, 0};
  m.decision_base = 40;
  m.decision_shared = 55;
  auto p = HeartbeatMsg::parse(m.serialize());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->view_order, m.view_order);
  EXPECT_EQ(p->decision_base, 40u);
  EXPECT_EQ(p->decision_shared, 55u);

  // A member listed twice is no rank order: the codec refuses it.
  m.view_order = {1, 2, 1};
  EXPECT_FALSE(HeartbeatMsg::parse(m.serialize()).has_value());
}

TEST(ControlMsgTest, ViewAnnounceRejectsRepeatedMembers) {
  ViewAnnounce va;
  va.epoch = 3;
  va.order = {0, 2};
  auto p = ControlMsg::parse(va.serialize());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->view_announce.order, va.order);

  va.order = {2, 2};
  EXPECT_FALSE(ControlMsg::parse(va.serialize()).has_value());
}

TEST(GroupViewTest, ValidOrderBoundsMembersByRoster) {
  EXPECT_TRUE(GroupView::valid_order({0, 1, 2}, 3));
  EXPECT_TRUE(GroupView::valid_order({}, 3));
  EXPECT_FALSE(GroupView::valid_order({0, 3}, 3));
  EXPECT_FALSE(GroupView::valid_order({1, 0, 1}, 3));
}

TEST(ControlMsgTest, RandomGarbageNeverParsesOrThrows) {
  sim::Rng rng(4242);
  for (int trial = 0; trial < 5000; ++trial) {
    net::Bytes junk(rng.below(64), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    ASSERT_NO_THROW({ (void)ControlMsg::parse(junk); });
  }
}

TEST(CounterUnwrapTest, MonotonicAndWrapping) {
  EXPECT_EQ(unwrap_counter(100, 0), 100u);
  EXPECT_EQ(unwrap_counter(100, 50), 100u);
  // A stale (smaller) wire value never regresses the counter.
  EXPECT_EQ(unwrap_counter(40, 50), 50u);
  // Forward across the 32-bit wrap.
  EXPECT_EQ(unwrap_counter(5, 0xfffffff0ull), 0x1'00000005ull);
  // Large jumps (< 2^31) are accepted.
  EXPECT_EQ(unwrap_counter(0x40000000, 0), 0x40000000u);
}

TEST(ControlMsgTest, RequestRoundTrip) {
  MissedBytesRequest req;
  req.repl_id = 3;
  req.offset = 0x1122334455ull;
  req.length = 4096;
  auto p = ControlMsg::parse(req.serialize());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->type, ControlType::kMissedBytesRequest);
  EXPECT_EQ(p->request.repl_id, 3);
  EXPECT_EQ(p->request.offset, 0x1122334455ull);
  EXPECT_EQ(p->request.length, 4096u);
}

TEST(ControlMsgTest, ReplyRoundTrip) {
  MissedBytesReply rep;
  rep.repl_id = 9;
  rep.offset = 777;
  rep.data = net::to_bytes("recovered payload");
  auto p = ControlMsg::parse(rep.serialize());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->type, ControlType::kMissedBytesReply);
  EXPECT_EQ(p->reply.repl_id, 9);
  EXPECT_EQ(p->reply.offset, 777u);
  EXPECT_EQ(p->reply.data, net::to_bytes("recovered payload"));
}

TEST(ControlMsgTest, GarbageRejected) {
  EXPECT_FALSE(ControlMsg::parse(net::to_bytes("\x07junk")).has_value());
  EXPECT_FALSE(ControlMsg::parse(net::Bytes{}).has_value());
  MissedBytesReply rep;
  rep.data = net::Bytes(100, 0xaa);
  net::Bytes w = rep.serialize();
  w.resize(20);  // length field promises more data than present
  EXPECT_FALSE(ControlMsg::parse(w).has_value());
}

}  // namespace
}  // namespace sttcp::sttcp
