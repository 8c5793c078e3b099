#include "tcp/send_buffer.h"

#include <algorithm>

namespace sttcp::tcp {

std::size_t SendBuffer::append(net::BytesView data) {
  const std::size_t n = std::min(data.size(), free_space());
  data_.append(data.first(n));
  return n;
}

std::size_t SendBuffer::ack_to(std::uint64_t upto) {
  if (upto <= una_) return 0;
  const std::size_t n =
      std::min(static_cast<std::size_t>(upto - una_), data_.size());
  data_.consume(n);
  una_ += n;
  return n;
}

net::Bytes SendBuffer::slice(std::uint64_t from, std::size_t len) const {
  if (from < una_ || from >= end_offset()) return {};
  return net::to_bytes(data_.view(static_cast<std::size_t>(from - una_), len));
}

}  // namespace sttcp::tcp
