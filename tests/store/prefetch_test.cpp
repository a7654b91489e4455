#include "store/prefetch.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "util/sha256.hpp"

namespace libspector::store {
namespace {

StoreConfig smallConfig(std::size_t apps = 24, std::uint64_t seed = 7) {
  StoreConfig config;
  config.appCount = apps;
  config.seed = seed;
  config.methodScale = 0.05;  // keep test dex files small
  return config;
}

TEST(PrefetchTest, DeliversEveryIndexExactlyOnceInOrder) {
  const AppStoreGenerator generator(smallConfig());
  PrefetchConfig config;
  config.threads = 4;
  JobPrefetcher prefetcher(generator, config);

  std::size_t expected = 0;
  while (auto item = prefetcher.next()) {
    EXPECT_EQ(item->index, expected);
    EXPECT_EQ(item->job.apk.packageName, generator.plan(expected).packageName);
    ++expected;
  }
  EXPECT_EQ(expected, generator.appCount());
  const auto stats = prefetcher.stats();
  EXPECT_EQ(stats.produced, generator.appCount());
  EXPECT_EQ(stats.delivered, generator.appCount());
}

TEST(PrefetchTest, NulloptIsSticky) {
  const AppStoreGenerator generator(smallConfig(3));
  PrefetchConfig config;
  config.threads = 2;
  JobPrefetcher prefetcher(generator, config);
  while (prefetcher.next()) {
  }
  EXPECT_FALSE(prefetcher.next().has_value());
  EXPECT_FALSE(prefetcher.next().has_value());
}

TEST(PrefetchTest, HonorsExplicitIndexList) {
  // Resumed studies feed the gap indices; the pool must expand exactly
  // those, in that order, under their original identities.
  const AppStoreGenerator generator(smallConfig());
  const std::vector<std::size_t> gaps{2, 5, 11, 17, 18};
  PrefetchConfig config;
  config.threads = 3;
  JobPrefetcher prefetcher(generator, gaps, config);

  std::vector<std::size_t> seen;
  while (auto item = prefetcher.next()) {
    seen.push_back(item->index);
    EXPECT_EQ(item->job.apk.packageName,
              generator.plan(item->index).packageName);
  }
  EXPECT_EQ(seen, gaps);
}

TEST(PrefetchTest, SlowConsumerNeverExceedsCapacity) {
  // Backpressure: with a capacity-K window and a consumer much slower than
  // the generators, memory must stay O(K) — the high-water mark of
  // outstanding jobs can never pass K no matter how far ahead the pool
  // could run.
  const AppStoreGenerator generator(smallConfig(32));
  constexpr std::size_t kCapacity = 4;
  PrefetchConfig config;
  config.threads = 8;
  config.capacity = kCapacity;
  JobPrefetcher prefetcher(generator, config);

  std::size_t delivered = 0;
  while (auto item = prefetcher.next()) {
    ++delivered;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_LE(prefetcher.stats().maxOutstanding, kCapacity);
  }
  EXPECT_EQ(delivered, generator.appCount());
  EXPECT_LE(prefetcher.stats().maxOutstanding, kCapacity);
}

TEST(PrefetchTest, EarlyDestructionDrainsWithoutDeadlock) {
  // Shutdown with generators mid-flight and a full window: the destructor
  // must stop and join without waiting on a consumer that will never come.
  const AppStoreGenerator generator(smallConfig(32));
  for (int round = 0; round < 10; ++round) {
    PrefetchConfig config;
    config.threads = 4;
    config.capacity = 2;
    JobPrefetcher prefetcher(generator, config);
    auto item = prefetcher.next();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(item->index, 0u);
    // Destructor runs with up to `capacity` jobs buffered and generators
    // blocked on the window.
  }
}

TEST(PrefetchTest, ImmediateDestructionIsSafe) {
  const AppStoreGenerator generator(smallConfig(16));
  for (int round = 0; round < 10; ++round) {
    PrefetchConfig config;
    config.threads = 4;
    JobPrefetcher prefetcher(generator, config);
  }
}

TEST(PrefetchTest, HashesApksDuringExpansion) {
  const AppStoreGenerator generator(smallConfig(6));
  PrefetchConfig config;
  config.threads = 2;
  JobPrefetcher prefetcher(generator, config);
  while (auto item = prefetcher.next()) {
    EXPECT_EQ(item->apkSha256, util::toHex(item->job.apk.sha256()));
  }
}

TEST(PrefetchTest, PullThroughModeMatchesThreadedDelivery) {
  // threads = 0 is the serial baseline: same items, same order, no pool.
  const AppStoreGenerator generator(smallConfig(12));
  JobPrefetcher serial(generator, PrefetchConfig{.threads = 0});
  PrefetchConfig threadedConfig;
  threadedConfig.threads = 4;
  JobPrefetcher threaded(generator, threadedConfig);

  while (true) {
    auto a = serial.next();
    auto b = threaded.next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    EXPECT_EQ(a->index, b->index);
    EXPECT_EQ(a->apkSha256, b->apkSha256);
    EXPECT_EQ(a->job.apk, b->job.apk);
  }
  EXPECT_EQ(serial.stats().delivered, threaded.stats().delivered);
}

TEST(PrefetchTest, CapacityIsClampedToAtLeastOne) {
  const AppStoreGenerator generator(smallConfig(5));
  PrefetchConfig config;
  config.threads = 2;
  config.capacity = 0;
  JobPrefetcher prefetcher(generator, config);
  std::size_t delivered = 0;
  while (prefetcher.next()) ++delivered;
  EXPECT_EQ(delivered, generator.appCount());
  EXPECT_LE(prefetcher.stats().maxOutstanding, 1u);
}

TEST(PrefetchTest, EmptyIndexListIsImmediatelyExhausted) {
  const AppStoreGenerator generator(smallConfig(4));
  PrefetchConfig config;
  config.threads = 2;
  JobPrefetcher prefetcher(generator, std::vector<std::size_t>{}, config);
  EXPECT_FALSE(prefetcher.next().has_value());
  EXPECT_EQ(prefetcher.stats().produced, 0u);
}

TEST(PrefetchTest, MoreThreadsThanJobsStillTerminates) {
  const AppStoreGenerator generator(smallConfig(2));
  PrefetchConfig config;
  config.threads = 16;
  JobPrefetcher prefetcher(generator, config);
  std::size_t delivered = 0;
  while (prefetcher.next()) ++delivered;
  EXPECT_EQ(delivered, 2u);
}

}  // namespace
}  // namespace libspector::store
