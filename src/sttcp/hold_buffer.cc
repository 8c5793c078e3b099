#include "sttcp/hold_buffer.h"

#include <algorithm>

namespace sttcp::sttcp {

bool HoldBuffer::append(std::uint64_t at, net::BytesView data) {
  if (data.empty()) return true;
  if (data_.empty()) {
    start_ = at;
  } else if (at != end_offset()) {
    // The rx tap is contiguous by construction; a mismatch is a logic error
    // upstream. Treat defensively as overflow so the endpoint reacts.
    overflowed_ = true;
    return false;
  }
  if (data_.size() + data.size() > capacity_) {
    overflowed_ = true;
    return false;
  }
  data_.append(data);
  return true;
}

void HoldBuffer::release_to(std::uint64_t upto) {
  if (upto <= start_) return;
  const std::size_t n =
      std::min(static_cast<std::size_t>(upto - start_), data_.size());
  data_.consume(n);
  start_ += n;
}

net::Bytes HoldBuffer::slice(std::uint64_t from, std::size_t len) const {
  if (from < start_ || from >= end_offset()) return {};
  return net::to_bytes(data_.view(static_cast<std::size_t>(from - start_), len));
}

void HoldBuffer::clear() {
  data_.clear();
  overflowed_ = false;
}

}  // namespace sttcp::sttcp
