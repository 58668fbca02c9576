#include "transport/recv_buffer.h"

#include <algorithm>
#include <cstring>

namespace af {

void RecvBuffer::Consume(size_t n) {
  begin_ += std::min(n, end_ - begin_);
  if (begin_ == end_) {
    begin_ = end_ = 0;
  }
}

std::span<uint8_t> RecvBuffer::Tail() {
  if (capacity_ - end_ < kReadChunk) {
    const size_t live = end_ - begin_;
    if (capacity_ - live >= kReadChunk) {
      std::memmove(data_.get(), data_.get() + begin_, live);
    } else {
      const size_t grown_capacity = std::max(2 * capacity_, live + kReadChunk);
      auto grown = std::make_unique_for_overwrite<uint8_t[]>(grown_capacity);
      if (live > 0) {
        std::memcpy(grown.get(), data_.get() + begin_, live);
      }
      data_ = std::move(grown);
      capacity_ = grown_capacity;
    }
    begin_ = 0;
    end_ = live;
  }
  return std::span<uint8_t>(data_.get() + end_, capacity_ - end_);
}

}  // namespace af
