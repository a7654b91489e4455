// Pipelined app-store generation throughput, tracked from PR 4 onward.
//
// Two axes:
//   - job expansion: makeJob + apk hashing through the serial pull-through
//     path vs the JobPrefetcher's generator pool at several thread counts
//     (a consumer draining as fast as next() delivers);
//   - hashing: ApkFile::sha256() as one streaming serialization walk vs
//     the seed path (materialize serialize(), then hash the buffer).
//
// The headline comparison drains a fixed corpus through the prefetcher at
// 0 (serial), 1, 2, 4 and hardware-thread generators, prints apps/sec per
// configuration, counts the heap allocations of one makeJob and of one
// job's destruction (a global operator new/delete hook), and writes
// BENCH_store.json so the perf trajectory is machine-readable. Scaling is
// flat on 1-core CI boxes; the >=3x pipeline criterion applies on
// multi-core hardware. The google-benchmark microbenchmarks after it
// isolate the hash path, job expansion and job destruction.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "store/prefetch.hpp"
#include "util/sha256.hpp"

// Global allocation and free counters: every operator new and delete in
// the process ticks them.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_frees{0};

void* countedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* countedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) & ~(a - 1);
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void countedFree(void* p) noexcept {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { countedFree(p); }
void operator delete[](void* p) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { countedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  countedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  countedFree(p);
}

namespace {

using namespace libspector;

constexpr std::size_t kApps = 96;

const store::AppStoreGenerator& benchGenerator() {
  static const store::AppStoreGenerator kGenerator([] {
    store::StoreConfig config;
    config.appCount = kApps;
    config.seed = 20200629;
    config.methodScale = 0.15;  // full-size default: realistic dex walks
    return config;
  }());
  return kGenerator;
}

struct DrainResult {
  double seconds = 0.0;
  store::JobPrefetcher::Stats stats;
};

/// Drain the whole corpus through a prefetcher with `threads` generators,
/// consuming as fast as next() delivers (the dispatcher's source lock is
/// not the bottleneck here; expansion is).
DrainResult drainCorpus(std::size_t threads) {
  store::PrefetchConfig config;
  config.threads = threads;
  config.capacity = 32;
  store::JobPrefetcher prefetcher(benchGenerator(), config);
  const auto start = std::chrono::steady_clock::now();
  std::size_t delivered = 0;
  while (auto item = prefetcher.next()) {
    benchmark::DoNotOptimize(item->apkSha256.data());
    ++delivered;
  }
  DrainResult result;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.stats = prefetcher.stats();
  if (delivered != kApps) std::fprintf(stderr, "short drain: %zu\n", delivered);
  return result;
}

struct JobHeapCost {
  double allocationsPerApp = 0;
  double freesPerApp = 0;
};

/// Heap allocations of makeJob and frees of the job's destruction, averaged
/// over the corpus, on one thread.
JobHeapCost measureJobHeapCost() {
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;
  for (std::size_t i = 0; i < kApps; ++i) {
    std::optional<store::AppStoreGenerator::Job> job;
    const std::uint64_t allocatedBefore = g_allocations.load();
    job.emplace(benchGenerator().makeJob(i));
    allocations += g_allocations.load() - allocatedBefore;
    const std::uint64_t freedBefore = g_frees.load();
    job.reset();
    frees += g_frees.load() - freedBefore;
  }
  return {static_cast<double>(allocations) / kApps,
          static_cast<double>(frees) / kApps};
}

void runHeadlineComparison() {
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> threadCounts{0, 1, 2, 4};
  if (std::find(threadCounts.begin(), threadCounts.end(), hardware) ==
      threadCounts.end())
    threadCounts.push_back(hardware);

  std::printf("=== store generation: %zu apps, expand + streaming sha256 ===\n",
              kApps);
  std::vector<DrainResult> results;
  double serialRate = 0.0;
  for (const std::size_t threads : threadCounts) {
    const auto result = drainCorpus(threads);
    results.push_back(result);
    const double rate = static_cast<double>(kApps) / result.seconds;
    if (threads == 0) serialRate = rate;
    std::printf(
        "%zu threads%s: %8.3f s  (%7.1f apps/s, window high-water %zu, "
        "consumer waits %zu)%s\n",
        threads, threads == 0 ? " (serial)" : "", result.seconds, rate,
        result.stats.maxOutstanding, result.stats.consumerWaits,
        threads == 0 ? "" :
            (" -- " + std::to_string(rate / serialRate) + "x").c_str());
  }
  const JobHeapCost heap = measureJobHeapCost();
  std::printf("heap: %.1f allocations per makeJob, %.1f frees per job "
              "destroyed\n\n",
              heap.allocationsPerApp, heap.freesPerApp);

  if (std::FILE* json = std::fopen("BENCH_store.json", "w")) {
    std::fprintf(json, "{\n  \"apps\": %zu,\n  \"hardware_threads\": %zu,\n",
                 kApps, hardware);
    // Flat headline for scripts/check_bench_floor.py: expand + hash on one
    // thread, the work a study's single generator thread does per app.
    std::fprintf(json, "  \"serial_apps_per_sec\": %.2f,\n", serialRate);
    // Recorded, not gated.
    std::fprintf(json, "  \"make_job_allocs_per_app\": %.1f,\n",
                 heap.allocationsPerApp);
    std::fprintf(json, "  \"destroy_job_frees_per_app\": %.1f,\n",
                 heap.freesPerApp);
    std::fprintf(json, "  \"configurations\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const double rate = static_cast<double>(kApps) / results[i].seconds;
      std::fprintf(json,
                   "    {\"threads\": %zu, \"seconds\": %.6f, "
                   "\"apps_per_sec\": %.2f, \"speedup_vs_serial\": %.3f, "
                   "\"max_outstanding\": %zu, \"consumer_waits\": %zu}%s\n",
                   threadCounts[i], results[i].seconds, rate,
                   serialRate > 0.0 ? rate / serialRate : 0.0,
                   results[i].stats.maxOutstanding,
                   results[i].stats.consumerWaits,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_store.json\n\n");
  }
}

// ---------------------------------------------------------------------------
// Microbenchmarks: the hash path in isolation.
// ---------------------------------------------------------------------------

void BM_Sha256Streaming(benchmark::State& state) {
  // The PR 4 path: one serialization walk feeding the hasher, no buffer.
  const auto job = benchGenerator().makeJob(0);
  std::size_t bytes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(job.apk.sha256());
    if (bytes == 0) bytes = job.apk.serialize().size();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Sha256Streaming)->Unit(benchmark::kMicrosecond);

void BM_Sha256Buffered(benchmark::State& state) {
  // The seed path: materialize the serialized apk, then hash the buffer.
  const auto job = benchGenerator().makeJob(0);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto buffer = job.apk.serialize();
    bytes = buffer.size();
    benchmark::DoNotOptimize(
        util::Sha256::hash(std::span(buffer.data(), buffer.size())));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Sha256Buffered)->Unit(benchmark::kMicrosecond);

void BM_MakeJob(benchmark::State& state) {
  // Expansion alone (no hashing): the unit of work the pool parallelizes.
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(benchGenerator().makeJob(i++ % kApps));
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_MakeJob)->Unit(benchmark::kMicrosecond);

void BM_DestroyJob(benchmark::State& state) {
  // Destruction alone: what an emulator worker pays to free a job it did
  // not make.
  std::size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const auto job = benchGenerator().makeJob(i++ % kApps);
    benchmark::DoNotOptimize(job.apk.dexFiles.data());
    state.ResumeTiming();
  }  // `job` is destroyed here, inside the timed region
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_DestroyJob)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  runHeadlineComparison();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
