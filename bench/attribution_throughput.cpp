// Offline attribution + aggregation throughput: the paper's "<5 s per app"
// stage at study scale (§II-B3), tracked from PR 1 onward.
//
// Three axes, benchmarked independently and combined:
//   - per-query cost: the seed attributor (reference::SeedAttributor in
//     SeedMode::Seed: a full capture scan per flow, no memos, string-prefix
//     matchers) vs core::TrafficAttributor (CaptureIndex, cross-run frame
//     cache, domain memo, compiled AttributionProgram);
//   - fold cost: row-at-a-time StudyAggregator::addApp vs the columnar
//     FlowColumns batch fold;
//   - parallelism: 1 worker vs one per hardware thread.
//
// The headline comparison runs a 200-app synthetic study end to end
// (attribute + study fold) the way the seed did — the frozen seed
// attributor, row fold, serialized — and the way the pipeline does now
// (TrafficAttributor + columnar fold + parallel), prints the speedup, and
// writes BENCH_attribution.json so the perf trajectory is machine-readable
// (scripts/check_bench_floor.py gates on it). The google-benchmark
// microbenchmarks after it isolate each axis.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <iterator>
#include <string_view>

#include "core/analysis.hpp"
#include "core/attribution.hpp"
#include "core/attribution_program.hpp"
#include "dex/type_signature.hpp"
#include "net/capture.hpp"
#include "orch/emulator.hpp"
#include "radar/ant.hpp"
#include "radar/corpus.hpp"
#include "reference/seed_attributor.hpp"
#include "store/generator.hpp"
#include "util/strings.hpp"
#include "vtsim/categorizer.hpp"

namespace {

using namespace libspector;

constexpr std::size_t kStudyApps = 200;

/// The pre-emulated study every benchmark attributes: emulation runs once,
/// attribution is what gets measured.
struct StudyWorld {
  StudyWorld() {
    store::StoreConfig storeConfig;
    storeConfig.appCount = kStudyApps;
    storeConfig.seed = 20200629;
    storeConfig.methodScale = 0.15;
    generator = std::make_unique<store::AppStoreGenerator>(storeConfig);
    categorizer = std::make_unique<vtsim::DomainCategorizer>(
        vtsim::defaultVendorPanel(), [this](const std::string& domain) {
          return generator->domainTruth(domain);
        });
    for (std::size_t i = 0; i < generator->appCount(); ++i) {
      const auto job = generator->makeJob(i);
      orch::EmulatorConfig config;
      config.monkey.events = 20000;
      config.monkey.throttleMs = 20;
      config.seed = 0x11b59ec701ULL + i;
      orch::EmulatorInstance emulator(generator->farm(), nullptr, config);
      runs.push_back(emulator.run(job.apk, job.program));
    }
  }

  [[nodiscard]] core::TrafficAttributor attributor() const {
    return {corpus, *categorizer};
  }

  /// The seed's attributor, faithfully: the frozen pre-acceleration code.
  [[nodiscard]] reference::SeedAttributor seedAttributor() const {
    return {corpus, *categorizer, reference::SeedMode::Seed};
  }

  const radar::LibraryCorpus corpus = radar::LibraryCorpus::builtin();
  std::unique_ptr<store::AppStoreGenerator> generator;
  std::unique_ptr<vtsim::DomainCategorizer> categorizer;
  std::vector<core::RunArtifacts> runs;
};

const StudyWorld& world() {
  static const StudyWorld kWorld;
  return kWorld;
}

/// Attribute every run of the study with `threads` workers; returns the
/// total flow count (and keeps the optimizer honest).
template <typename Attributor>
std::size_t attributeStudy(const Attributor& attributor, std::size_t threads) {
  std::atomic<std::size_t> nextRun{0};
  std::atomic<std::size_t> flowCount{0};
  const auto worker = [&] {
    while (true) {
      const std::size_t i = nextRun.fetch_add(1);
      if (i >= world().runs.size()) return;
      const auto flows = attributor.attribute(world().runs[i]);
      flowCount.fetch_add(flows.size());
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  }
  return flowCount.load();
}

/// Attribute and row-fold the whole study serially (the seed's end-to-end
/// shape: one worker, FlowRecord rows through StudyAggregator::addApp).
template <typename Attributor>
std::size_t attributeAndFoldRows(const Attributor& attributor,
                                 core::StudyAggregator& study) {
  std::size_t flowCount = 0;
  for (const auto& run : world().runs) {
    const auto flows = attributor.attribute(run);
    flowCount += flows.size();
    study.addApp(run, flows);
  }
  return flowCount;
}

/// Attribute (columnar) with `threads` workers and fold every batch through
/// StudyAggregator::addAppColumns — the pipeline's end-to-end shape. The
/// fold is serialized behind a mutex exactly like the accumulator's.
std::size_t attributeAndFoldColumns(const core::TrafficAttributor& attributor,
                                    std::size_t threads,
                                    core::StudyAggregator& study) {
  std::atomic<std::size_t> nextRun{0};
  std::atomic<std::size_t> flowCount{0};
  std::mutex foldMutex;
  const auto worker = [&] {
    while (true) {
      const std::size_t i = nextRun.fetch_add(1);
      if (i >= world().runs.size()) return;
      const core::FlowColumns columns =
          attributor.attributeColumns(world().runs[i]);
      flowCount.fetch_add(columns.size());
      const std::scoped_lock lock(foldMutex);
      study.addAppColumns(world().runs[i], columns);
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  }
  return flowCount.load();
}

double secondsOf(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// The acceptance-criterion comparison; also writes BENCH_attribution.json.
void runHeadlineComparison() {
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::size_t packets = 0;
  for (const auto& run : world().runs) packets += run.capture.size();

  const auto naive = world().seedAttributor();
  const auto optimized = world().attributor();

  // Attribution-only axes (the PR-1 comparison, kept for trajectory).
  std::size_t flows = 0;
  const double naiveSerialS =
      secondsOf([&] { flows = attributeStudy(naive, 1); });
  const double indexedSerialS =
      secondsOf([&] { attributeStudy(optimized, 1); });
  const double indexedParallelS =
      secondsOf([&] { attributeStudy(optimized, threads); });

  // End-to-end: attribution plus the study fold, seed shape vs pipeline
  // shape. This is the headline the perf floor gates on.
  double seedFoldS = 0.0;
  {
    core::StudyAggregator study;
    seedFoldS = secondsOf([&] { attributeAndFoldRows(naive, study); });
    benchmark::DoNotOptimize(study.totals());
  }
  double columnarSerialS = 0.0;
  {
    core::StudyAggregator study;
    columnarSerialS =
        secondsOf([&] { attributeAndFoldColumns(optimized, 1, study); });
    benchmark::DoNotOptimize(study.totals());
  }
  double columnarParallelS = 0.0;
  {
    core::StudyAggregator study;
    columnarParallelS =
        secondsOf([&] { attributeAndFoldColumns(optimized, threads, study); });
    benchmark::DoNotOptimize(study.totals());
  }

  const auto speedupOver = [](double seed, double now) {
    return now > 0.0 ? seed / now : 0.0;
  };
  const double speedupIndexedParallel =
      speedupOver(naiveSerialS, indexedParallelS);
  const double speedupColumnarSerial = speedupOver(seedFoldS, columnarSerialS);
  const double speedupColumnarParallel =
      speedupOver(seedFoldS, columnarParallelS);

  std::printf("=== attribution throughput: %zu-app study ===\n", kStudyApps);
  std::printf("capture packets: %zu, flows attributed: %zu\n", packets, flows);
  std::printf("--- attribution only ---\n");
  std::printf("seed  (naive scans, no memo/intern/program, serialized): %8.3f s  (%.1f apps/s)\n",
              naiveSerialS, static_cast<double>(kStudyApps) / naiveSerialS);
  std::printf("index (capture index + memos + program,     serialized): %8.3f s  (%.1f apps/s)\n",
              indexedSerialS, static_cast<double>(kStudyApps) / indexedSerialS);
  std::printf("index (capture index + memos + program, %2zu-way parallel): %6.3f s  (%.1f apps/s)\n",
              threads, indexedParallelS,
              static_cast<double>(kStudyApps) / indexedParallelS);
  std::printf("--- attribution + study fold (headline) ---\n");
  std::printf("seed  (naive attribute + row fold,          serialized): %8.3f s  (%.1f apps/s)\n",
              seedFoldS, static_cast<double>(kStudyApps) / seedFoldS);
  std::printf("this  (compiled attribute + columnar fold,  serialized): %8.3f s  (%.1f apps/s)\n",
              columnarSerialS,
              static_cast<double>(kStudyApps) / columnarSerialS);
  std::printf("this  (compiled attribute + columnar fold, %2zu-way parallel): %.3f s  (%.1f apps/s)\n",
              threads, columnarParallelS,
              static_cast<double>(kStudyApps) / columnarParallelS);
  std::printf("speedup (seed -> indexed parallel, attribution only): %.1fx\n",
              speedupIndexedParallel);
  std::printf("speedup (seed -> columnar serialized, end to end)   : %.1fx\n",
              speedupColumnarSerial);
  std::printf("speedup (seed -> columnar parallel,   end to end)   : %.1fx\n\n",
              speedupColumnarParallel);

  if (std::FILE* json = std::fopen("BENCH_attribution.json", "w")) {
    std::fprintf(json,
                 "{\n"
                 "  \"study_apps\": %zu,\n"
                 "  \"capture_packets\": %zu,\n"
                 "  \"flows\": %zu,\n"
                 "  \"threads\": %zu,\n"
                 "  \"naive_serialized_seconds\": %.6f,\n"
                 "  \"indexed_serialized_seconds\": %.6f,\n"
                 "  \"indexed_parallel_seconds\": %.6f,\n"
                 "  \"seed_fold_serialized_seconds\": %.6f,\n"
                 "  \"columnar_serialized_seconds\": %.6f,\n"
                 "  \"columnar_parallel_seconds\": %.6f,\n"
                 "  \"speedup_indexed_serialized\": %.3f,\n"
                 "  \"speedup_indexed_parallel\": %.3f,\n"
                 "  \"speedup_columnar_serialized\": %.3f,\n"
                 "  \"speedup_columnar_parallel\": %.3f\n"
                 "}\n",
                 kStudyApps, packets, flows, threads, naiveSerialS,
                 indexedSerialS, indexedParallelS, seedFoldS, columnarSerialS,
                 columnarParallelS, speedupOver(naiveSerialS, indexedSerialS),
                 speedupIndexedParallel, speedupColumnarSerial,
                 speedupColumnarParallel);
    std::fclose(json);
    std::printf("wrote BENCH_attribution.json\n\n");
  }
}

// ---------------------------------------------------------------------------
// Microbenchmarks: each axis in isolation.
// ---------------------------------------------------------------------------

const core::RunArtifacts& largestRun() {
  static const core::RunArtifacts& kRun = []() -> const core::RunArtifacts& {
    const core::RunArtifacts* largest = &world().runs.front();
    for (const auto& run : world().runs) {
      if (run.capture.size() > largest->capture.size()) largest = &run;
    }
    return *largest;
  }();
  return kRun;
}

void BM_StreamVolume_NaiveScan(benchmark::State& state) {
  const auto& run = largestRun();
  const auto& reports = run.reports;
  if (reports.empty()) {
    state.SkipWithError("largest run produced no reports");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& report = reports[i++ % reports.size()];
    benchmark::DoNotOptimize(run.capture.streamVolume(
        report.socketPair, 0, report.timestampMs + 10'000));
  }
  state.SetLabel("packets=" + std::to_string(run.capture.size()));
}
BENCHMARK(BM_StreamVolume_NaiveScan);

void BM_StreamVolume_Indexed(benchmark::State& state) {
  const auto& run = largestRun();
  const net::CaptureIndex index(run.capture);
  const auto& reports = run.reports;
  if (reports.empty()) {
    state.SkipWithError("largest run produced no reports");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& report = reports[i++ % reports.size()];
    benchmark::DoNotOptimize(index.streamVolume(
        report.socketPair, 0, report.timestampMs + 10'000));
  }
  state.SetLabel("packets=" + std::to_string(run.capture.size()));
}
BENCHMARK(BM_StreamVolume_Indexed);

void BM_CaptureIndex_Build(benchmark::State& state) {
  const auto& run = largestRun();
  for (auto _ : state) {
    const net::CaptureIndex index(run.capture);
    benchmark::DoNotOptimize(index.connectionCount());
  }
}
BENCHMARK(BM_CaptureIndex_Build);

void BM_AttributeApp_Seed(benchmark::State& state) {
  const auto attributor = world().seedAttributor();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attributor.attribute(world().runs[i++ % world().runs.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_AttributeApp_Seed);

void BM_AttributeApp_Indexed(benchmark::State& state) {
  const auto attributor = world().attributor();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attributor.attribute(world().runs[i++ % world().runs.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_AttributeApp_Indexed);

// Sample lookups for the matcher microbenches: hits at several depths plus
// adversarial near-prefixes and misses.
constexpr std::string_view kLookupPackages[] = {
    "com.google.android.gms.ads.internal",
    "com.unity3d.ads.android.cache",
    "com.facebook.ads.internal.view",
    "com.appsflyer.internal",
    "org.fooz.bar.baz",
    "com.examplez.widget",
    "a.b",
    "com.foo.bar.baz.qux.deep.deeper.deepest",
};

constexpr std::string_view kFrameSignatures[] = {
    "Lcom/android/okhttp/internal/http/HttpEngine;->readResponse()V",
    "Ljava/net/URL;->openConnection()Ljava/net/URLConnection;",
    "Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)V",
    "Lcom/facebook/ads/internal/view/e;->onDraw(Landroid/graphics/Canvas;)V",
    "Lorg/apache/http/impl/client/DefaultHttpClient;->execute()V",
};

const core::AttributionProgram& program() {
  static const core::AttributionProgram kProgram(
      world().corpus, core::builtinFramePrefixes(), radar::antLibraries(),
      radar::commonLibraries());
  return kProgram;
}

void BM_PrefixMatch_Reference(benchmark::State& state) {
  const auto& corpus = world().corpus;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string_view package =
        kLookupPackages[i++ % std::size(kLookupPackages)];
    benchmark::DoNotOptimize(corpus.matchCategory(package));
    benchmark::DoNotOptimize(radar::antLibraries().matches(package));
    benchmark::DoNotOptimize(radar::commonLibraries().matches(package));
  }
}
BENCHMARK(BM_PrefixMatch_Reference);

void BM_PrefixMatch_Compiled(benchmark::State& state) {
  const auto& compiled = program();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string_view package =
        kLookupPackages[i++ % std::size(kLookupPackages)];
    const auto hit = compiled.lookupPackage(package);
    benchmark::DoNotOptimize(compiled.categoryOf(hit));
    benchmark::DoNotOptimize(hit.ant);
    benchmark::DoNotOptimize(hit.common);
  }
}
BENCHMARK(BM_PrefixMatch_Compiled);

void BM_BuiltinFrame_Reference(benchmark::State& state) {
  const auto prefixes = core::builtinFramePrefixes();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string_view signature =
        kFrameSignatures[i++ % std::size(kFrameSignatures)];
    const auto parsed = dex::parseSignatureView(signature);
    bool builtin = false;
    if (parsed.has_value()) {
      for (const std::string_view prefix : prefixes) {
        if (util::isHierarchicalPrefixOfSlashedFrame(
                prefix, parsed->slashedClass, parsed->methodName)) {
          builtin = true;
          break;
        }
      }
    }
    benchmark::DoNotOptimize(builtin);
  }
}
BENCHMARK(BM_BuiltinFrame_Reference);

void BM_BuiltinFrame_Compiled(benchmark::State& state) {
  const auto& compiled = program();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string_view signature =
        kFrameSignatures[i++ % std::size(kFrameSignatures)];
    benchmark::DoNotOptimize(compiled.isBuiltinFrame(signature));
  }
}
BENCHMARK(BM_BuiltinFrame_Compiled);

/// Pre-attributed study for the fold-only microbenches. The attributor
/// outlives the flows/columns (their Symbols point into its pool).
struct FoldWorld {
  FoldWorld() : attributor(world().attributor()) {
    for (const auto& run : world().runs) {
      rows.push_back(attributor.attribute(run));
      columns.push_back(attributor.attributeColumns(run));
    }
  }
  core::TrafficAttributor attributor;
  std::vector<std::vector<core::FlowRecord>> rows;
  std::vector<core::FlowColumns> columns;
};

const FoldWorld& foldWorld() {
  static const FoldWorld kFold;
  return kFold;
}

void BM_StudyFold_Rows(benchmark::State& state) {
  for (auto _ : state) {
    core::StudyAggregator study;
    for (std::size_t i = 0; i < world().runs.size(); ++i)
      study.addApp(world().runs[i], foldWorld().rows[i]);
    benchmark::DoNotOptimize(study.totals());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * static_cast<std::int64_t>(kStudyApps)));
}
BENCHMARK(BM_StudyFold_Rows)->Unit(benchmark::kMillisecond);

void BM_StudyFold_Columnar(benchmark::State& state) {
  for (auto _ : state) {
    core::StudyAggregator study;
    for (std::size_t i = 0; i < world().runs.size(); ++i)
      study.addAppColumns(world().runs[i], foldWorld().columns[i]);
    benchmark::DoNotOptimize(study.totals());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * static_cast<std::int64_t>(kStudyApps)));
}
BENCHMARK(BM_StudyFold_Columnar)->Unit(benchmark::kMillisecond);

void BM_StudyAttribution(benchmark::State& state) {
  const auto attributor = world().attributor();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(attributeStudy(attributor, threads));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * static_cast<std::int64_t>(kStudyApps)));
}
BENCHMARK(BM_StudyAttribution)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  runHeadlineComparison();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
