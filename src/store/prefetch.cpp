#include "store/prefetch.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/sha256.hpp"

namespace libspector::store {

namespace {

std::vector<std::size_t> allIndices(const AppStoreGenerator& generator) {
  std::vector<std::size_t> indices(generator.appCount());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  return indices;
}

}  // namespace

JobPrefetcher::JobPrefetcher(const AppStoreGenerator& generator,
                             std::vector<std::size_t> indices,
                             PrefetchConfig config)
    : generator_(generator),
      indices_(std::move(indices)),
      config_{config.threads, std::max<std::size_t>(config.capacity, 1)} {
  const std::size_t threads =
      std::min(config_.threads, std::max<std::size_t>(indices_.size(), 1));
  generators_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t)
    generators_.emplace_back([this] { generatorLoop(); });
}

JobPrefetcher::JobPrefetcher(const AppStoreGenerator& generator,
                             PrefetchConfig config)
    : JobPrefetcher(generator, allIndices(generator), config) {}

JobPrefetcher::~JobPrefetcher() {
  {
    const std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  windowOpen_.notify_all();
  headReady_.notify_all();
  for (auto& thread : generators_) thread.join();
}

JobPrefetcher::Item JobPrefetcher::expand(std::size_t position) const {
  Item item;
  item.index = indices_[position];
  item.job = generator_.makeJob(item.index);
  item.apkSha256 = util::toHex(item.job.apk.sha256());
  return item;
}

void JobPrefetcher::generatorLoop() {
  while (true) {
    std::size_t position = 0;
    {
      std::unique_lock lock(mutex_);
      // The reorder window: never claim more than `capacity` positions
      // ahead of the consumer's head, so outstanding jobs — and with them
      // memory — stay O(capacity) even when the consumer is slow.
      windowOpen_.wait(lock, [this] {
        return stop_ || nextClaim_ == indices_.size() ||
               nextClaim_ < head_ + config_.capacity;
      });
      if (stop_ || nextClaim_ == indices_.size()) return;
      position = nextClaim_++;
      stats_.maxOutstanding = std::max(stats_.maxOutstanding, nextClaim_ - head_);
    }

    Item item = expand(position);  // the heavy work, outside the lock

    {
      const std::scoped_lock lock(mutex_);
      if (stop_) return;
      ++stats_.produced;
      const bool isHead = position == head_;
      ready_.emplace(position, std::move(item));
      if (isHead) headReady_.notify_all();
    }
  }
}

std::optional<JobPrefetcher::Item> JobPrefetcher::next() {
  if (generators_.empty()) {
    // Pull-through (serial) mode: same expansion code, caller's thread.
    std::size_t position = 0;
    {
      const std::scoped_lock lock(mutex_);
      if (head_ == indices_.size()) return std::nullopt;
      position = head_++;
      stats_.maxOutstanding = std::max<std::size_t>(stats_.maxOutstanding, 1);
    }
    Item item = expand(position);
    const std::scoped_lock lock(mutex_);
    ++stats_.produced;
    ++stats_.delivered;
    return item;
  }

  std::unique_lock lock(mutex_);
  if (head_ == indices_.size()) return std::nullopt;
  if (!stop_ && ready_.find(head_) == ready_.end()) ++stats_.consumerWaits;
  headReady_.wait(lock, [this] {
    return stop_ || ready_.find(head_) != ready_.end();
  });
  if (stop_) return std::nullopt;
  auto node = ready_.extract(head_);
  ++head_;
  ++stats_.delivered;
  // The window moved: every generator parked on it may now claim.
  windowOpen_.notify_all();
  return std::move(node.mapped());
}

JobPrefetcher::Stats JobPrefetcher::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

}  // namespace libspector::store
