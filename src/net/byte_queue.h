// Contiguous byte FIFO: the one byte queue behind the TCP send and receive
// buffers, the ST-TCP hold buffer and the stream logger's retention log.
//
// One vector plus a head index. Appends go to the back; consume() advances
// the head. When the head passes half the vector the live bytes are moved
// to the front (one memmove, paid for by the bytes already consumed, so
// every byte is moved O(1) times amortized). When the queue empties its
// storage is freed: an idle connection (thousands sit in TIME_WAIT under
// churn) holds no buffer at all.
#pragma once

#include <algorithm>
#include <cstdint>

#include "net/bytes.h"

namespace sttcp::net {

class ByteQueue {
 public:
  std::size_t size() const { return buf_.size() - head_; }
  bool empty() const { return head_ == buf_.size(); }
  /// Bytes of storage held (0 whenever the queue is empty).
  std::size_t capacity() const { return buf_.capacity(); }

  void append(BytesView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

  /// Drop up to `n` bytes from the front.
  void consume(std::size_t n) {
    head_ += std::min(n, size());
    if (head_ == buf_.size()) {
      clear();
    } else if (head_ > buf_.size() / 2) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Up to `n` bytes starting `at` bytes past the front (at <= size()). The
  /// view is invalidated by the next append or consume.
  BytesView view(std::size_t at, std::size_t n) const {
    return BytesView(buf_.data() + head_ + at, std::min(n, size() - at));
  }

  /// Drop everything and free the storage.
  void clear() {
    Bytes().swap(buf_);
    head_ = 0;
  }

 private:
  Bytes buf_;
  std::size_t head_ = 0;  // offset of the oldest live byte in buf_
};

}  // namespace sttcp::net
