// The fleet-wide frame-table cache under a real dispatcher: repeated runs
// of one apk from 8 workers share one translation table, and every run's
// artifacts and report datagrams equal those of a run without the cache.
// The table is built from a job apk that is destroyed before the runs that
// reuse it, each of which brings its own copy of the same bytes.
#include "orch/dispatcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "rt/framework.hpp"
#include "store/generator.hpp"
#include "util/sha256.hpp"

namespace libspector::orch {
namespace {

constexpr std::size_t kWorkers = 8;
constexpr std::size_t kApks = 2;
constexpr std::size_t kRunsPerApk = 8;

using Datagram = std::vector<std::uint8_t>;

/// Every datagram the fleet sends, grouped by the run (worker id) that sent
/// it, in send order.
class CollectingSink final : public ingest::ReportSink {
 public:
  void submitDatagram(std::span<const std::uint8_t> payload) override {
    const auto workerId = core::ReportFrame::peek(payload).workerId;
    const std::scoped_lock lock(mutex_);
    byRun_[workerId].emplace_back(payload.begin(), payload.end());
  }
  [[nodiscard]] std::map<std::uint32_t, std::vector<Datagram>> byRun() const {
    const std::scoped_lock lock(mutex_);
    return byRun_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint32_t, std::vector<Datagram>> byRun_;
};

/// A generated app that also bundles the HTTP engines' wrapper classes, so
/// the framework frames of its stack traces translate through the table.
store::AppStoreGenerator::Job bundledJob(
    const store::AppStoreGenerator& generator, std::size_t app,
    std::vector<std::string>& bundled) {
  auto job = generator.makeJob(app);
  dex::DexFile wrappers;
  for (const auto engine :
       {rt::HttpEngine::OkHttp, rt::HttpEngine::UrlConnection,
        rt::HttpEngine::ApacheHttp}) {
    for (const std::string_view frame : rt::engineChain(engine)) {
      const std::size_t dot = frame.rfind('.');
      std::string slashed(frame.substr(0, dot));
      std::replace(slashed.begin(), slashed.end(), '.', '/');
      const std::string signature =
          "L" + slashed + ";->" + std::string(frame.substr(dot + 1)) + "()V";
      wrappers.addClass(frame.substr(0, dot), {signature});
      bundled.push_back(signature);
    }
  }
  job.apk.dexFiles.push_back(std::move(wrappers));
  return job;
}

TEST(FrameTableCacheTest, RunsOfOneApkShareATableAndMatchCachelessRuns) {
  store::StoreConfig storeConfig;
  storeConfig.appCount = kApks;
  storeConfig.seed = 5;
  const store::AppStoreGenerator generator(storeConfig);
  std::vector<std::string> bundled;
  std::vector<store::AppStoreGenerator::Job> apps;
  std::vector<std::string> digests;
  for (std::size_t a = 0; a < kApks; ++a) {
    apps.push_back(bundledJob(generator, a, bundled));
    digests.push_back(util::toHex(apps.back().apk.sha256()));
  }

  DispatcherConfig config;
  config.workers = kWorkers;
  config.emulator.monkey.events = 100;
  config.emulator.monkey.throttleMs = 50;
  const auto appOf = [](std::size_t index) { return index % kApks; };
  constexpr std::size_t kRuns = kApks * kRunsPerApk;

  // Cacheless twin of every run: the supervisor builds its own table.
  CollectingSink cachelessSink;
  std::vector<std::vector<std::uint8_t>> expected(kRuns);
  for (std::size_t index = 0; index < kRuns; ++index) {
    EmulatorConfig emulatorConfig = config.emulator;
    emulatorConfig.seed = config.baseSeed + index;
    emulatorConfig.workerId = static_cast<std::uint32_t>(index);
    EmulatorInstance emulator(generator.farm(), &cachelessSink, emulatorConfig);
    const auto& app = apps[appOf(index)];
    expected[index] = emulator.run(app.apk, app.program).serialize();
  }

  // Every job brings a fresh copy of its apk's bytes.
  const auto jobFor = [&](std::size_t index) {
    const auto& app = apps[appOf(index)];
    Dispatcher::Job job;
    job.apk = dex::ApkFile::deserialize(app.apk.serialize());
    job.program = app.program;
    job.index = index;
    job.apkSha256 = digests[appOf(index)];
    return job;
  };

  CollectingSink sink;
  Dispatcher dispatcher(generator.farm(), &sink, config);
  std::vector<std::vector<std::uint8_t>> actual(kRuns);
  std::mutex actualMutex;
  const auto collect = [&](std::size_t index, core::RunArtifacts&& artifacts) {
    auto bytes = artifacts.serialize();
    const std::scoped_lock lock(actualMutex);
    actual[index] = std::move(bytes);
  };

  // Run 0 builds the first apk's table; its job, apk included, is gone
  // when runConcurrent returns.
  {
    bool pulled = false;
    dispatcher.runConcurrent(
        [&]() -> std::optional<Dispatcher::Job> {
          if (pulled) return std::nullopt;
          pulled = true;
          return jobFor(0);
        },
        collect);
  }
  EXPECT_EQ(dispatcher.frameTableStats().misses, 1u);
  EXPECT_EQ(dispatcher.frameTableStats().hits, 0u);

  // The rest, both apks interleaved, race through 8 workers.
  std::size_t next = 1;
  dispatcher.runConcurrent(
      [&]() -> std::optional<Dispatcher::Job> {
        if (next == kRuns) return std::nullopt;
        return jobFor(next++);
      },
      collect);

  ASSERT_TRUE(dispatcher.failures().empty());
  const auto stats = dispatcher.frameTableStats();
  EXPECT_GE(stats.hits, kRunsPerApk - 1);  // every later run of apk 0
  EXPECT_EQ(stats.hits + stats.misses, kRuns);
  EXPECT_EQ(stats.evictions, 0u);

  for (std::size_t index = 0; index < kRuns; ++index)
    EXPECT_EQ(actual[index], expected[index]) << "artifacts of run " << index;
  const auto datagrams = sink.byRun();
  EXPECT_EQ(datagrams, cachelessSink.byRun());
  EXPECT_EQ(datagrams.size(), kRuns);

  // The bundled wrapper frames really went through the table.
  std::size_t translated = 0;
  for (const auto& bytes : actual)
    for (const auto& report : core::RunArtifacts::deserialize(bytes).reports)
      for (const auto& signature : report.stackSignatures)
        if (std::find(bundled.begin(), bundled.end(), signature) !=
            bundled.end())
          ++translated;
  EXPECT_GT(translated, 0u);
}

}  // namespace
}  // namespace libspector::orch
