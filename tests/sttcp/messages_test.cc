#include "sttcp/messages.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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

/// Re-patch the checksum after editing bytes, so a test exercises the
/// codec's structural guards rather than the checksum.
void repatch(net::Bytes& w) {
  w[1] = 0;
  w[2] = 0;
  const std::uint16_t c = net::internet_checksum(net::BytesView(w).subspan(1));
  w[1] = static_cast<std::uint8_t>(c >> 8);
  w[2] = static_cast<std::uint8_t>(c);
}

HeartbeatMsg decision_msg(std::uint64_t base, std::size_t n) {
  HeartbeatMsg m;
  m.decisions_valid = true;
  m.decision_ack = 0x1122334455667788ull;
  for (std::size_t i = 0; i < n; ++i) {
    DecisionRecord d;
    d.seq = base + i;
    d.kind = static_cast<std::uint8_t>(1 + i % 5);
    d.value = 0xABCD0000ull + i;
    m.decisions.push_back(d);
  }
  return m;
}

// Header: magic(1) checksum(2) role(1) hb_seq(4) flags(1); then the
// decision block: ack(8) count(2) [base(8)] and 9 B per record.
constexpr std::size_t kDecisionCountAt = 9 + 8;
constexpr std::size_t kDecisionBaseAt = kDecisionCountAt + 2;

TEST(HeartbeatMsgTest, CompactDecisionBlockRoundTrips) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{512}}) {
    HeartbeatMsg m = decision_msg(1000, n);
    m.decision_gap = n == 1;
    const net::Bytes w = m.serialize();
    // Base once, then kind + value per record; no base without records.
    EXPECT_EQ(w.size(), 9 + 8 + 2 + (n > 0 ? 8 : 0) + 9 * n + 2) << n;
    const auto p = HeartbeatMsg::parse(w);
    ASSERT_TRUE(p.has_value()) << n;
    EXPECT_TRUE(p->decisions_valid);
    EXPECT_EQ(p->decision_gap, n == 1);
    EXPECT_EQ(p->decision_ack, m.decision_ack);
    ASSERT_EQ(p->decisions.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(p->decisions[i].seq, m.decisions[i].seq);
      EXPECT_EQ(p->decisions[i].kind, m.decisions[i].kind);
      EXPECT_EQ(p->decisions[i].value, m.decisions[i].value);
    }
  }
  // A gap report is an ack with no records.
  HeartbeatMsg gap = decision_msg(0, 0);
  gap.decision_gap = true;
  const auto p = HeartbeatMsg::parse(gap.serialize());
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->decision_gap);
  EXPECT_TRUE(p->decisions.empty());
}

TEST(HeartbeatMsgTest, NonContiguousDecisionRunIsRefused) {
  HeartbeatMsg m = decision_msg(5, 3);
  m.decisions[2].seq = 9;
  EXPECT_THROW(m.serialize(), std::logic_error);
}

TEST(HeartbeatMsgTest, TruncatedDecisionBlockRejected) {
  const net::Bytes whole = decision_msg(40, 3).serialize();
  // A count promising one record more than the block holds.
  net::Bytes w = whole;
  w[kDecisionCountAt + 1] = 4;
  repatch(w);
  EXPECT_FALSE(HeartbeatMsg::parse(w).has_value());
  // The block cut short, checksum valid: every cut inside it is rejected.
  for (std::size_t cut = kDecisionCountAt; cut < whole.size() - 2; ++cut) {
    net::Bytes t(whole.begin(), whole.begin() + static_cast<std::ptrdiff_t>(cut));
    repatch(t);
    EXPECT_FALSE(HeartbeatMsg::parse(t).has_value()) << "cut at " << cut;
  }
}

TEST(HeartbeatMsgTest, DecisionSeqOverflowRejected) {
  const auto with_base = [](std::uint64_t base) {
    net::Bytes w = decision_msg(1, 3).serialize();
    for (int i = 0; i < 8; ++i) {
      w[kDecisionBaseAt + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(base >> (56 - 8 * i));
    }
    repatch(w);
    return HeartbeatMsg::parse(w);
  };
  const std::uint64_t max = ~std::uint64_t{0};
  // Three records from max - 2 end exactly at max: accepted.
  const auto fits = with_base(max - 2);
  ASSERT_TRUE(fits.has_value());
  EXPECT_EQ(fits->decisions.back().seq, max);
  // One further and the last seq wraps past uint64: rejected.
  EXPECT_FALSE(with_base(max - 1).has_value());
  EXPECT_FALSE(with_base(max).has_value());
  // Seqs are 1-based.
  EXPECT_FALSE(with_base(0).has_value());
}

TEST(HeartbeatMsgTest, PairHeartbeatWithoutDecisionLogIsByteIdentical) {
  // The pair without a decision log never sets the decision flag: its wire
  // bytes are the pre-decision-channel format, pinned here byte for byte.
  HeartbeatMsg m;
  m.role = Role::kPrimary;
  m.hb_seq = 0x01020304;
  m.ping_valid = true;
  m.ping_ok = true;
  HbRecord a;
  a.repl_id = 3;
  a.bytes_received = 1000;
  a.acked_by_peer = 2000;
  a.app_written = 2000;
  a.app_read = 1000;
  m.records.push_back(a);
  HbRecord b = a;
  b.repl_id = 4;
  b.announce = true;
  b.established = true;
  b.fin_generated = true;
  b.client_ip = net::Ipv4Addr(0x0a000001);
  b.client_port = 40000;
  b.local_port = 80;
  b.iss = 0xdeadbeef;
  b.irs = 0x12345678;
  m.records.push_back(b);
  const net::Bytes w = m.serialize();
  std::string hex;
  for (const std::uint8_t c : w) {
    static const char* kDigits = "0123456789abcdef";
    hex += kDigits[c >> 4];
    hex += kDigits[c & 0xf];
  }
  EXPECT_EQ(hex,
            "48c1770001020304030002000300000003e8000007d0000007d0000003e800"
            "0419000003e8000007d0000007d0000003e80a0000019c400050deadbeef12"
            "345678");
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
