// Pipelined job generation (the corpus-preparation half of the pipeline).
//
// makeJob(i) is a pure function of the plan seed, which is what lets the
// dispatcher expand a 25,000-app corpus lazily — but the seed path expands
// each job inline in the dispatcher's job-source lock, so every emulator
// worker stalls behind one generator core. JobPrefetcher runs N generator
// threads that expand plans (and hash the apks, streaming) *ahead* of the
// consumer, through a bounded reorder window that preserves index order
// exactly. Determinism is the contract: at any thread count the consumer
// sees the same (index, apk bytes, sha256, program) sequence the serial
// path produces, proven by tests/store/prefetch_determinism_test.cpp.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "store/generator.hpp"

namespace libspector::store {

struct PrefetchConfig {
  /// Generator threads expanding plans ahead of the consumer. 0 = pull
  /// through: next() expands synchronously on the calling thread — the
  /// serial seed path, kept as the determinism baseline.
  std::size_t threads = 0;
  /// Upper bound on jobs outstanding at once (buffered for the consumer
  /// plus in expansion), so memory stays O(capacity) jobs no matter how
  /// far the generators could run ahead of a slow consumer. A generator
  /// that outruns the emulators fills the whole window, so its size is
  /// peak memory; 8 keeps the emulator workers fed (DESIGN.md §9).
  std::size_t capacity = 8;
};

/// Bounded, order-preserving pool of generator threads over a fixed index
/// list. Single consumer (the dispatcher's job source, which is already
/// serialized by the source lock); stats() is safe from any thread.
class JobPrefetcher {
 public:
  struct Item {
    /// Original job index (resumed studies pass gap indices here, so
    /// replayed corpora keep their original identities).
    std::size_t index = 0;
    AppStoreGenerator::Job job;
    /// Hex digest of the apk's serialized bytes, computed during expansion
    /// (one streaming walk) so emulator workers and the supervisor never
    /// re-serialize to hash.
    std::string apkSha256;
  };

  struct Stats {
    std::size_t produced = 0;   // jobs expanded
    std::size_t delivered = 0;  // jobs handed to the consumer
    /// High-water mark of outstanding jobs (claimed by a generator but not
    /// yet delivered); never exceeds capacity.
    std::size_t maxOutstanding = 0;
    /// next() calls that found the head job not ready yet — the stall the
    /// prefetcher exists to remove.
    std::size_t consumerWaits = 0;
  };

  /// Expand exactly `indices`, in that order. The generator must outlive
  /// the prefetcher.
  JobPrefetcher(const AppStoreGenerator& generator,
                std::vector<std::size_t> indices, PrefetchConfig config = {});
  /// Convenience: the whole corpus, indices [0, generator.appCount()).
  explicit JobPrefetcher(const AppStoreGenerator& generator,
                         PrefetchConfig config = {});
  /// Stops the pool and joins; undelivered jobs are discarded. Never
  /// blocks on the consumer — safe to destroy after a partial drain.
  ~JobPrefetcher();

  JobPrefetcher(const JobPrefetcher&) = delete;
  JobPrefetcher& operator=(const JobPrefetcher&) = delete;

  /// The next item in index-list order, or nullopt once exhausted
  /// (nullopt is sticky). Blocks until the head item is ready.
  [[nodiscard]] std::optional<Item> next();

  [[nodiscard]] Stats stats() const;

 private:
  [[nodiscard]] Item expand(std::size_t position) const;
  void generatorLoop();

  const AppStoreGenerator& generator_;
  const std::vector<std::size_t> indices_;
  const PrefetchConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable windowOpen_;  // generators wait for window space
  std::condition_variable headReady_;   // consumer waits for the head item
  std::map<std::size_t, Item> ready_;   // position -> expanded item
  std::size_t nextClaim_ = 0;           // next position a generator takes
  std::size_t head_ = 0;                // next position next() returns
  bool stop_ = false;
  Stats stats_;
  std::vector<std::thread> generators_;
};

}  // namespace libspector::store
