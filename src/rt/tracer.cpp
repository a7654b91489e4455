#include "rt/tracer.hpp"

#include <algorithm>
#include <functional>
#include <utility>

namespace libspector::rt {

RingBufferTracer::RingBufferTracer(std::size_t capacity) : capacity_(capacity) {
  buffer_.reserve(capacity);
}

void RingBufferTracer::onMethodEntry(std::string_view signature) {
  if (buffer_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  buffer_.emplace_back(signature);
}

std::vector<std::string> RingBufferTracer::traceFile() const { return buffer_; }

void UniqueMethodTracer::onMethodEntry(std::string_view signature) {
  ++totalEntries_;
  if (2 * (order_.size() + 1) > index_.size()) growIndex();
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = std::hash<std::string_view>{}(signature) & mask;;
       i = (i + 1) & mask) {
    const std::uint32_t slot = index_[i];
    if (slot == 0) {
      order_.emplace_back(signature);
      index_[i] = static_cast<std::uint32_t>(order_.size());
      return;
    }
    if (order_[slot - 1] == signature) return;
  }
}

void UniqueMethodTracer::growIndex() {
  std::vector<std::uint32_t> grown(std::max<std::size_t>(64, 2 * index_.size()),
                                   0);
  const std::size_t mask = grown.size() - 1;
  for (std::size_t p = 0; p < order_.size(); ++p) {
    std::size_t i = std::hash<std::string_view>{}(order_[p]) & mask;
    while (grown[i] != 0) i = (i + 1) & mask;
    grown[i] = static_cast<std::uint32_t>(p + 1);
  }
  index_.swap(grown);
}

std::vector<std::string> UniqueMethodTracer::traceFile() const { return order_; }

std::vector<std::string> UniqueMethodTracer::takeTraceFile() noexcept {
  index_.clear();
  return std::exchange(order_, {});
}

}  // namespace libspector::rt
