// Heap allocations of one generated job (DESIGN.md §9).
//
// An apk and its program keep their names in string tables, so making a
// job of ~6k methods costs under a thousand allocations (mostly the
// program's action bodies), not one or more per method, and destroying it
// frees fewer still. This binary
// replaces the global operator new/delete with counting versions; the
// tests read the counters around makeJob and around the job's destruction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>

#include "store/generator.hpp"

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

namespace libspector::store {
namespace {

// The default method scale: ~6k dex methods and several hundred program
// methods per app, each of which used to be a std::string (or two) of its
// own.
constexpr std::size_t kApps = 25;
constexpr double kMaxAllocationsPerJob = 2000;

struct JobCost {
  double allocationsPerJob = 0;
  double freesPerJob = 0;
  double dexMethodsPerJob = 0;
};

JobCost measure(const StoreConfig& config) {
  const AppStoreGenerator generator(config);
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;
  std::uint64_t methods = 0;
  for (std::size_t i = 0; i < generator.appCount(); ++i) {
    std::optional<AppStoreGenerator::Job> job;
    const std::uint64_t before = g_allocations.load();
    job.emplace(generator.makeJob(i));
    allocations += g_allocations.load() - before;
    methods += job->apk.totalMethodCount();
    const std::uint64_t freedBefore = g_frees.load();
    job.reset();
    frees += g_frees.load() - freedBefore;
  }
  const auto apps = static_cast<double>(generator.appCount());
  return {static_cast<double>(allocations) / apps,
          static_cast<double>(frees) / apps,
          static_cast<double>(methods) / apps};
}

TEST(MakeJobAllocationTest, AJobTakesFarFewerBlocksThanMethods) {
  StoreConfig config;
  config.appCount = kApps;
  config.seed = 20200629;
  const JobCost cost = measure(config);
  RecordProperty("allocations_per_job", static_cast<int>(cost.allocationsPerJob));
  RecordProperty("frees_per_destroy", static_cast<int>(cost.freesPerJob));
  ASSERT_GT(cost.dexMethodsPerJob, 3 * kMaxAllocationsPerJob)
      << "the world is too small for the bound to mean anything";
  EXPECT_LE(cost.allocationsPerJob, kMaxAllocationsPerJob);
  // Destroying a job frees only what the job holds: its string tables, its
  // class and method tables and the program's action bodies.
  EXPECT_LE(cost.freesPerJob, cost.allocationsPerJob);
  EXPECT_LE(cost.freesPerJob, kMaxAllocationsPerJob / 2);
}

TEST(MakeJobAllocationTest, ScenarioWorldsStayWithinTheSameBound) {
  StoreConfig config;
  config.appCount = kApps;
  config.seed = 77;
  config.scenarios = {.keepAliveReuse = true,
                      .adversarialApps = true,
                      .backgroundSync = true};
  const JobCost cost = measure(config);
  EXPECT_LE(cost.allocationsPerJob, kMaxAllocationsPerJob);
  EXPECT_LE(cost.freesPerJob, kMaxAllocationsPerJob / 2);
}

}  // namespace
}  // namespace libspector::store
