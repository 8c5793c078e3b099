// The primary's extra receive buffer (paper §2): client bytes the primary
// has already ACKed to the client are retained here until the backup's
// heartbeat confirms their receipt, so a backup that missed segments can
// recover them from the primary instead of the client (which would not
// retransmit bytes the primary ACKed).
//
// Overflow means the backup has fallen too far behind to ever be caught up
// from this buffer — the paper's rule is to declare the backup failed and
// run non-fault-tolerantly (§4.3, "temporary local network failures").
#pragma once

#include <cstdint>

#include "net/byte_queue.h"
#include "net/bytes.h"

namespace sttcp::sttcp {

class HoldBuffer {
 public:
  explicit HoldBuffer(std::size_t capacity) : capacity_(capacity) {}

  /// Append in-order stream bytes at absolute payload offset `at` (must
  /// equal end_offset(); the rx tap guarantees contiguity). Returns false —
  /// without storing — once the buffer would overflow.
  bool append(std::uint64_t at, net::BytesView data);

  /// Backup confirmed receipt through offset `upto`: release everything
  /// below it.
  void release_to(std::uint64_t upto);

  /// Copy out up to `len` bytes starting at `from`; clipped to what is held.
  /// An empty result means the range is entirely outside the buffer.
  net::Bytes slice(std::uint64_t from, std::size_t len) const;

  std::uint64_t start_offset() const { return start_; }
  std::uint64_t end_offset() const { return start_ + data_.size(); }
  std::size_t size() const { return data_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool overflowed() const { return overflowed_; }
  /// Drop all contents (entering non-fault-tolerant mode).
  void clear();

 private:
  std::size_t capacity_;
  std::uint64_t start_ = 0;
  net::ByteQueue data_;
  bool overflowed_ = false;
};

}  // namespace sttcp::sttcp
