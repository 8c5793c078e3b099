// Group view and promotion bookkeeping for 1+N replication groups.
//
// A group is an ordered member list: order[0] is the leader, the rest are
// backups in promotion-rank order. Membership is presence in the order;
// conviction removes a member, reintegration re-appends it at the lowest
// rank. Every view change bumps the epoch, and the current leader announces
// the new view so the group converges (docs/GROUPS.md).
//
// The promotion protocol the endpoint drives with this state:
//
//   backup convicts leader -> remove from local view
//     lowest-ranked live member?  yes -> candidate: PromoteRequest to every
//                                       live voter; unanimous grants + own
//                                       gateway reachability => win: STONITH
//                                       every convicted member, epoch++,
//                                       self to rank 0, ViewAnnounce.
//                                 no  -> defer: wait promote_defer for the
//                                       lower candidate's ViewAnnounce; on
//                                       expiry convict the silent candidate
//                                       and re-evaluate.
//
// A voter grants at most one candidate per epoch; with the leader and the
// rank-1 backup both dead at N=3 the voter set is empty and the last member
// wins immediately — the quorum is over the *current view*, which is what
// lets two simultaneous failures be survived while one-grant-per-epoch plus
// mandatory STONITH-before-unsuppress keeps dual-active impossible.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sttcp::sttcp {

struct GroupView {
  std::uint32_t epoch = 0;
  /// Member indices (into StTcpConfig::group) in rank order; order[0] is the
  /// leader. Absence means convicted/departed.
  std::vector<std::uint8_t> order;

  /// A usable rank order: every member indexes a roster of `roster_size`
  /// and none repeats. Orders arrive off the wire; nothing else guards the
  /// roster lookups keyed by them.
  static bool valid_order(const std::vector<std::uint8_t>& order,
                          std::size_t roster_size) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] >= roster_size) return false;
      if (std::find(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(i),
                    order[i]) != order.begin() + static_cast<std::ptrdiff_t>(i)) {
        return false;
      }
    }
    return true;
  }

  bool contains(std::uint8_t m) const {
    return std::find(order.begin(), order.end(), m) != order.end();
  }
  /// Rank of member `m` in this view (0 = leader); -1 if not a member.
  int rank_of(std::uint8_t m) const {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == m) return static_cast<int>(i);
    }
    return -1;
  }
  std::uint8_t leader() const { return order.empty() ? 0 : order.front(); }
  bool is_leader(std::uint8_t m) const { return !order.empty() && order.front() == m; }

  /// Remove a convicted member (no epoch bump here — the caller decides when
  /// the change becomes an announced view).
  void remove(std::uint8_t m) {
    order.erase(std::remove(order.begin(), order.end(), m), order.end());
  }
  /// Reintegrated member re-enters at the lowest rank.
  void append_lowest(std::uint8_t m) {
    if (!contains(m)) order.push_back(m);
  }

  std::string str() const {
    std::string s = "epoch " + std::to_string(epoch) + " [";
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (i != 0) s += ",";
      s += std::to_string(static_cast<int>(order[i]));
    }
    return s + "]";
  }
};

/// Candidate-side vote ledger for one promotion attempt.
struct PromotionBallot {
  std::uint32_t epoch = 0;             // view epoch the votes are for
  std::vector<std::uint8_t> voters;    // live members solicited
  std::vector<std::uint8_t> grants;    // voters that granted
  bool active = false;

  bool granted_by(std::uint8_t v) const {
    return std::find(grants.begin(), grants.end(), v) != grants.end();
  }
  /// Unanimity over the (possibly empty) live voter set.
  bool unanimous() const { return grants.size() >= voters.size(); }
  void reset() { *this = PromotionBallot{}; }
};

}  // namespace sttcp::sttcp
