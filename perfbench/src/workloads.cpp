#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "alloc_counter.hpp"
#include "core/analysis.hpp"
#include "core/artifacts.hpp"
#include "core/attribution.hpp"
#include "core/export.hpp"
#include "core/monitor.hpp"
#include "core/report.hpp"
#include "core/supervisor.hpp"
#include "hook/xposed.hpp"
#include "ingest/pipeline.hpp"
#include "monkey/monkey.hpp"
#include "net/stack.hpp"
#include "orch/dispatcher.hpp"
#include "orch/recovery.hpp"
#include "orch/study.hpp"
#include "radar/corpus.hpp"
#include "rt/interpreter.hpp"
#include "spectord/client.hpp"
#include "spectord/daemon.hpp"
#include "spectord/protocol.hpp"
#include "store/generator.hpp"
#include "store/prefetch.hpp"
#include "trace.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "vtsim/categorizer.hpp"
#include "vtsim/vendor.hpp"

namespace perfbench {
namespace {

using namespace libspector;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr const char* kFresh = "study_fresh";
constexpr const char* kReplay = "study_replay";
constexpr const char* kLive = "collector_live";

// Thread budget per workload (nproc = 4 on the reference machine).
// study_fresh: 2 emulator workers + 1 ingest shard + 1 generator thread.
constexpr std::size_t kFreshWorkers = 2;
constexpr std::size_t kFreshShards = 1;
constexpr std::size_t kFreshPrefetch = 1;
// study_replay: the driving thread (scan, replay submit) + 3 ingest shards.
constexpr std::size_t kReplayShards = 3;
// collector_live: 2 ingest connections (one thread each, mostly waiting
// on the daemon) + 1 dashboard connection (polled by the driving thread);
// the daemon runs its event loop and 1 ingest shard.
constexpr std::size_t kLiveClients = 2;
constexpr std::size_t kLiveShards = 1;

/// The traced campaign's spans must cover its wall time to within this
/// share (the rest is glue between layers: constructors, joins).
constexpr double kCoverageSlack = 0.05;

/// Serial twins computed side by side in study_fresh's (untimed) check.
constexpr std::size_t kCheckThreads = 4;

/// Percentiles need this many samples beyond them to be reported.
constexpr double kMinSamplesBeyond = 10.0;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Reset VmHWM to the current RSS so the next peakRssMb() covers only what
/// follows (the timed phase), not what set-up touched. Free heap pages are
/// returned to the kernel first, so the baseline is what is live, not what
/// the allocator happened to keep from earlier rounds.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset VmHWM via clear_refs");
}

double statusMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      std::istringstream fields(line.substr(std::strlen(field)));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error(std::string(field) +
                           " missing from /proc/self/status");
}

double peakRssMb() { return statusMb("VmHWM:"); }

double median(std::vector<double> values) {
  if (values.empty()) throw std::runtime_error("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile that refuses (throws) when fewer than ten
/// samples lie beyond it: p99 needs 1000 samples, p50 needs 20.
double percentile(std::vector<double> values, double q,
                  const std::string& name) {
  const double beyond = (1.0 - q) * static_cast<double>(values.size());
  if (beyond < kMinSamplesBeyond) {
    throw std::runtime_error("refusing " + name + ": " +
                             std::to_string(values.size()) +
                             " samples leave fewer than 10 beyond it");
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

/// Every figure dataset plus the markdown report, as
/// tests/integration/scenario_matrix_test renders them.
std::string renderStudy(const core::StudyAggregator& study) {
  std::ostringstream out;
  core::writeFig2Csv(study, out);
  core::writeTopLibrariesCsv(study, 25, out);
  core::writeCdfCsv(study, out);
  core::writeFlowRatiosCsv(study, out);
  core::writeAntSharesCsv(study, out);
  core::writeCategoryAveragesCsv(study, out);
  core::writeHeatmapCsv(study, out);
  core::writeCoverageCsv(study, out);
  core::writeStudyReport(study, out);
  return out.str();
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t renderDigest(const core::StudyAggregator& study) {
  Span span("core.render");
  return fnv1a(renderStudy(study));
}

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string fixed(double value, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

fs::path freshDir(const fs::path& path) {
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

/// The generated world each workload measures. study_replay turns every
/// rt::ScenarioConfig flag on (keep-alive window splitting, trampoline
/// elision, background sync); the others keep the defaults (all off).
orch::StudyConfig worldConfig(const std::string& workload, std::uint64_t seed,
                              std::size_t apps) {
  orch::StudyConfig config;
  config.store.appCount = apps;
  config.store.seed = seed;
  if (workload == kReplay) {
    rt::ScenarioConfig scenarios;
    scenarios.keepAliveReuse = true;
    scenarios.adversarialApps = true;
    scenarios.backgroundSync = true;
    config.store.scenarios = scenarios;
    config.dispatcher.emulator.scenario = scenarios;
  }
  return config;
}

/// Library corpus + domain categorizer + attributor for one study, as
/// runStudy builds them.
class AttributionStack {
 public:
  AttributionStack(const store::AppStoreGenerator& generator,
                   const core::AttributorConfig& config)
      : corpus_(radar::LibraryCorpus::builtin()),
        categorizer_(vtsim::defaultVendorPanel(),
                     [&generator](const std::string& domain) {
                       return generator.domainTruth(domain);
                     }),
        attributor_(corpus_, categorizer_, config),
        columnar_(config.columnarFold) {}
  AttributionStack(const AttributionStack&) = delete;
  AttributionStack& operator=(const AttributionStack&) = delete;

  /// Attribution callbacks. When `spanned`, each call is a core.attribute
  /// span; callers whose attribution overlaps their own spans (the daemon
  /// acks a run before its shard attributes it) pass false.
  [[nodiscard]] ingest::IngestPipeline::AttributeFn rows(
      bool spanned = true) const {
    return [this, spanned](const core::RunArtifacts& run) {
      if (!spanned) return attributor_.attribute(run);
      Span span("core.attribute");
      return attributor_.attribute(run);
    };
  }
  [[nodiscard]] ingest::IngestPipeline::AttributeColumnsFn columns(
      bool spanned = true) const {
    if (!columnar_) return {};
    return [this, spanned](const core::RunArtifacts& run) {
      if (!spanned) return attributor_.attributeColumns(run);
      Span span("core.attribute");
      return attributor_.attributeColumns(run);
    };
  }

 private:
  radar::LibraryCorpus corpus_;
  vtsim::DomainCategorizer categorizer_;
  core::TrafficAttributor attributor_;
  bool columnar_;
};

std::unique_ptr<AttributionStack> makeAttribution(
    const store::AppStoreGenerator& generator,
    const core::AttributorConfig& config) {
  Span span("setup.corpus");
  return std::make_unique<AttributionStack>(generator, config);
}

std::unique_ptr<store::AppStoreGenerator> makeWorld(
    const store::StoreConfig& config) {
  Span span("store.world");
  return std::make_unique<store::AppStoreGenerator>(config);
}

/// One emulated run as the collector sees it: the supervisor datagrams in
/// send order, then the artifact bundle.
struct RecordedRun {
  std::size_t index = 0;
  core::RunArtifacts artifacts;
  std::vector<std::vector<std::uint8_t>> datagrams;
};

/// Forwards every datagram to `next` and keeps a copy in a per-thread
/// buffer; a dispatcher worker runs one job at a time, so the buffer holds
/// exactly the current job's datagrams when its result sink runs.
class RecordingSink final : public ingest::ReportSink {
 public:
  explicit RecordingSink(ingest::ReportSink& next) : next_(next) {}

  void submitDatagram(std::span<const std::uint8_t> payload) override {
    buffer().emplace_back(payload.begin(), payload.end());
    next_.submitDatagram(payload);
  }
  static std::vector<std::vector<std::uint8_t>> take() {
    return std::exchange(buffer(), {});
  }

 private:
  static std::vector<std::vector<std::uint8_t>>& buffer() {
    thread_local std::vector<std::vector<std::uint8_t>> datagrams;
    return datagrams;
  }
  ingest::ReportSink& next_;
};

std::uint64_t reportsKept(const ingest::IngestMetrics& metrics) {
  return metrics.reportsDelivered;
}
std::uint64_t reportsEmitted(const ingest::IngestMetrics& metrics) {
  return metrics.reportsDelivered + metrics.reportsLost;
}

// ---------------------------------------------------------------------------
// The serial twin of runStudy, assembled from its public pieces. With the
// tracer enabled it is the traced study; disabled, the untraced twin the
// tracing overhead and the study_fresh output check compare against.
// ---------------------------------------------------------------------------

struct TwinOutput {
  std::unique_ptr<store::AppStoreGenerator> generator;
  std::uint64_t digest = 0;
  std::size_t apps = 0;
  std::size_t failed = 0;
  double wallMs = 0.0;
  ingest::IngestMetrics ingest;
};

TwinOutput freshTwin(const orch::StudyConfig& config, const fs::path& dir) {
  const auto start = Clock::now();
  Tracer& trace = tracer();
  TwinOutput out;
  out.generator = makeWorld(config.store);
  const store::AppStoreGenerator& generator = *out.generator;
  {
    // Destroying the study's pieces is part of the study: it is timed as
    // orch.teardown, which ends after every object below is gone.
    LateSpan teardown("orch.teardown");
    const auto attribution = makeAttribution(generator, config.attribution);
    core::StudyAggregator study;
    core::StudyAccumulator accumulator(
        study, trace.enabled() ? core::StudyAccumulator::FoldHook(
                                     [&trace](core::RunArtifacts&&) {
                                       trace.end("core.fold");
                                     })
                               : core::StudyAccumulator::FoldHook{});
    orch::CheckpointWriter checkpointer(dir.string());
    ingest::IngestPipeline pipeline(
        ingest::IngestConfig{.shards = 1}, attribution->rows(), &accumulator,
        [&checkpointer](const ingest::RunDelivery& delivery) {
          Span span("orch.checkpoint");
          checkpointer.checkpoint(delivery.jobIndex, delivery.account,
                                  delivery.artifacts);
        },
        attribution->columns());
    // The run hook fires after the checkpoint and right before the
    // accumulator folds the run; the fold hook fires right after it.
    if (trace.enabled())
      pipeline.setRunHook(
          [&trace](const ingest::RunDigest&) { trace.begin("core.fold"); });

    orch::DispatcherConfig dispatcherConfig = config.dispatcher;
    dispatcherConfig.workers = 1;
    orch::Dispatcher dispatcher(generator.farm(), &pipeline, dispatcherConfig);
    std::size_t next = 0;
    // The one worker destroys each job after its sink returns, before it
    // pulls the next: orch.job_teardown spans that gap.
    bool jobTeardown = false;
    dispatcher.runConcurrent(
        [&]() -> std::optional<orch::Dispatcher::Job> {
          if (std::exchange(jobTeardown, false)) trace.end("orch.job_teardown");
          if (next == generator.appCount()) return std::nullopt;
          orch::Dispatcher::Job job;
          {
            Span wait("orch.source_wait");
            store::AppStoreGenerator::Job made;
            {
              Span span("store.make_job");
              made = generator.makeJob(next);
            }
            {
              Span span("dex.sha256");
              job.apkSha256 = util::toHex(made.apk.sha256());
            }
            job.apk = std::move(made.apk);
            job.program = std::move(made.program);
            job.index = next++;
          }
          trace.begin("orch.emulate");  // ends when the run reaches the sink
          return job;
        },
        [&](std::size_t index, core::RunArtifacts&& artifacts) {
          trace.end("orch.emulate");
          {
            Span span("ingest.submit");
            pipeline.submitRun(index, std::move(artifacts));
            pipeline.drain();
          }
          trace.begin("orch.job_teardown");
          jobTeardown = true;
        },
        [&](std::size_t index, const orch::Dispatcher::FailedJob&) {
          trace.end("orch.emulate");
          ++out.failed;
          pipeline.skip(index);
          trace.begin("orch.job_teardown");
          jobTeardown = true;
        });
    pipeline.drain();
    accumulator.finish();
    out.apps = dispatcher.appsProcessed();
    out.ingest = pipeline.metrics();
    out.digest = renderDigest(study);
    teardown.start();
  }
  out.wallMs = msSince(start);
  return out;
}

// ---------------------------------------------------------------------------
// Traced campaign phases after the fresh study.
// ---------------------------------------------------------------------------

/// EmulatorInstance::run, step by step through the public calls it is made
/// of, timing hook.attach (XposedFramework::attachToApp builds the frame
/// table), rt.exercise (Interpreter::start, monkey and background ticks)
/// and core.coverage (MethodMonitor), and recording every datagram.
RecordedRun emulateInSteps(const store::AppStoreGenerator& generator,
                           const orch::DispatcherConfig& dispatcher,
                           std::size_t index,
                           const store::AppStoreGenerator::Job& job,
                           const std::string& sha,
                           dex::FrameTableCache& frameTables) {
  orch::EmulatorConfig config = dispatcher.emulator;
  config.seed = dispatcher.baseSeed + index;
  config.workerId = static_cast<std::uint32_t>(index);

  RecordedRun recorded;
  recorded.index = index;
  util::SimClock clock;
  util::Rng rng(config.seed);
  net::NetworkStack stack(generator.farm(), clock, rng.fork(1), config.stack);
  std::vector<core::UdpReport> localReports;
  core::ReportStreamDecoder localDecoder;
  stack.registerUdpSink(
      core::kDefaultCollectorEndpoint,
      [&](const net::SockEndpoint&, std::span<const std::uint8_t> payload) {
        try {
          localReports.push_back(localDecoder.decode(payload));
        } catch (const util::DecodeError&) {
        }
        recorded.datagrams.emplace_back(payload.begin(), payload.end());
      });
  core::MethodMonitor monitor;
  rt::Interpreter runtime(job.program, stack, monitor.tracer(), clock,
                          rng.fork(2));
  runtime.setScenario(config.scenario);

  hook::XposedFramework xposed;
  const auto supervisor = std::make_shared<core::SocketSupervisor>(
      core::kDefaultCollectorEndpoint, config.workerId);
  {
    Span span("hook.attach");
    if (config.dictionaryFrames) supervisor->enableDictionaryFrames();
    supervisor->primeApkContext(sha, &frameTables);
    xposed.installModule(supervisor);
    xposed.attachToApp(runtime, job.apk);
  }
  monkey::MonkeyStats monkeyStats;
  {
    Span span("rt.exercise");
    runtime.start();
    monkeyStats = monkey::exercise(runtime, clock, config.monkey);
    for (std::uint32_t tick = 0; tick < config.backgroundTicks; ++tick) {
      runtime.runBackgroundTick();
      clock.advance(config.backgroundTickMs);
    }
    runtime.closePooledConnections();
  }
  core::RunArtifacts& artifacts = recorded.artifacts;
  artifacts.apkSha256 = sha;
  artifacts.packageName = job.apk.packageName;
  artifacts.appCategory = job.apk.appCategory;
  artifacts.capture = std::move(stack.capture());
  artifacts.reports = std::move(localReports);
  artifacts.reportsEmitted = supervisor->reportsSent();
  {
    Span span("core.coverage");
    artifacts.methodTraceFile = monitor.writeTraceFile();
    artifacts.coverage = core::MethodMonitor::computeCoverage(
        artifacts.methodTraceFile, job.apk);
  }
  artifacts.monkeyEventsInjected = monkeyStats.eventsInjected;
  artifacts.runDurationMs = monkeyStats.elapsedMs;
  artifacts.requestBoundaries = monitor.requestBoundaries();
  return recorded;
}

struct SplitOutput {
  std::vector<RecordedRun> runs;
  std::uint64_t apkBytes = 0;
  std::uint64_t packets = 0;
};

/// Re-emulates every job of the world in steps (emulateInSteps). The
/// recorded runs feed the live phase, whose merged study must equal the
/// fresh study — which checks that the steps reproduce EmulatorInstance::run.
SplitOutput splitEmulate(const store::AppStoreGenerator& generator,
                         const orch::DispatcherConfig& dispatcher) {
  SplitOutput out;
  LateSpan teardown("orch.teardown");  // destroys the frame-table cache
  dex::FrameTableCache frameTables;
  for (std::size_t i = 0; i < generator.appCount(); ++i) {
    LateSpan jobTeardown("orch.job_teardown");
    store::AppStoreGenerator::Job job;
    {
      Span span("store.make_job");
      job = generator.makeJob(i);
    }
    std::string sha;
    {
      Span span("dex.sha256");
      sha = util::toHex(job.apk.sha256());
    }
    {
      Span span("bench.inspect");
      out.apkBytes += job.apk.serialize().size();
    }
    {
      Span span("orch.emulate");
      out.runs.push_back(
          emulateInSteps(generator, dispatcher, i, job, sha, frameTables));
    }
    out.packets += out.runs.back().artifacts.capture.size();
    jobTeardown.start();
  }
  teardown.start();
  return out;
}

struct ReplayOutput {
  std::uint64_t digest = 0;
  std::size_t runs = 0;
  std::uint64_t flows = 0;
};

/// What mergeStudies does with one checkpoint directory, from its pieces:
/// recovery scan, replay through ingest, attribution, fold, render.
ReplayOutput replayTwin(const store::AppStoreGenerator& generator,
                        const orch::StudyConfig& config, const fs::path& dir) {
  Tracer& trace = tracer();
  ReplayOutput out;
  orch::RecoveryReport report;
  {
    Span span("orch.recovery_scan");
    report = orch::StudyRecovery::scan(dir.string());
  }
  const auto attribution = makeAttribution(generator, config.attribution);
  core::StudyAggregator study;
  core::StudyAccumulator accumulator(
      study, [&trace](core::RunArtifacts&&) { trace.end("core.fold"); });
  ingest::IngestPipeline pipeline(ingest::IngestConfig{.shards = 1},
                                  attribution->rows(), &accumulator, {},
                                  attribution->columns());
  pipeline.setRunHook(
      [&trace](const ingest::RunDigest&) { trace.begin("core.fold"); });
  for (auto& run : report.runs) {
    Span span("ingest.replay");
    pipeline.replayRun(run.jobIndex, std::move(run.artifacts), run.account);
    pipeline.drain();
    ++out.runs;
  }
  accumulator.finish();
  out.flows = pipeline.rollingTotals().flowCount;
  out.digest = renderDigest(study);
  return out;
}

struct LiveTraceOutput {
  std::uint64_t wireBytes = 0;
  std::uint64_t rejectedFrames = 0;
  std::size_t unacked = 0;
};

/// Streams the recorded runs through a checkpointing daemon over one
/// serial ingest connection: datagrams (spectord.submit), completeRun and
/// its ack (spectord.ack), then the wait until the daemon has attributed,
/// checkpointed and folded the run (spectord.fold_wait).
LiveTraceOutput liveTraced(const store::AppStoreGenerator& generator,
                           const orch::StudyConfig& config,
                           const std::vector<RecordedRun>& runs,
                           const fs::path& dir) {
  LiveTraceOutput out;
  const auto attribution = makeAttribution(generator, config.attribution);
  spectord::DaemonConfig daemonConfig;
  daemonConfig.ingest.shards = 1;
  daemonConfig.expectedRuns = runs.size();
  daemonConfig.checkpointDirectory = dir.string();
  spectord::SpectorDaemon daemon(daemonConfig, attribution->rows(false),
                                 attribution->columns(false));
  {
    spectord::IngestClient client(daemon.connect(), 0x7e57ULL);
    for (const auto& run : runs) {
      {
        Span span("spectord.submit");
        for (const auto& datagram : run.datagrams)
          client.submitDatagram(datagram);
      }
      {
        Span span("spectord.ack");
        if (!client.completeRun(run.index, run.artifacts).accepted)
          ++out.unacked;
      }
      {
        Span span("spectord.fold_wait");
        daemon.pipeline().drain();
      }
      {
        Span span("bench.inspect");
        for (const auto& datagram : run.datagrams)
          out.wireBytes += datagram.size() + spectord::FrameParser::kHeaderSize;
        out.wireBytes +=
            core::SpabEnvelope::encode(run.index, {}, run.artifacts).size() +
            spectord::FrameParser::kHeaderSize;
      }
    }
    client.bye();
  }
  daemon.drain();
  out.rejectedFrames = daemon.metrics().protocolRejectedFrames;
  daemon.shutdown();
  return out;
}

std::uint64_t directoryBytes(const fs::path& dir,
                             const std::string& extension) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file() && entry.path().extension() == extension)
      bytes += entry.file_size();
  return bytes;
}

// ---------------------------------------------------------------------------
// Trace mode: the serial traced campaign.
// ---------------------------------------------------------------------------

/// Records one output check: its apps count as attempted, and all of them
/// as failed when the check does not hold.
void addCheck(Result& result, const std::string& name, bool ok,
              std::size_t apps, const std::string& detail) {
  result.attempted += apps;
  if (!ok) {
    result.failed += apps;
    result.correct = false;
  }
  result.notes.push_back("check " + name + ": " + (ok ? "ok" : "MISMATCH") +
                         " (" + detail + ")");
}

using MetricMap = std::map<std::string, Metric>;

void put(MetricMap& metrics, const std::string& name, double value,
         const std::string& unit) {
  metrics[name] = Metric{name, value, unit};
}

/// One traced campaign over a fresh world: fresh study (traced twin of
/// runStudy) → emulation sub-step split → replay of its checkpoints →
/// live stream of its runs through spectord. Returns the per-layer
/// metrics; checks go into `result`.
MetricMap traceRound(const Options& options, std::uint64_t seed,
                     Result& result) {
  const std::size_t apps = options.sizes.traceApps;
  const orch::StudyConfig config = worldConfig(options.workload, seed, apps);
  const fs::path base = options.workDir / "trace";
  Tracer& trace = tracer();

  // Untraced first. The probe (runStudy with study_fresh's thread shape,
  // on its own copy of the world) also warms code and page cache, so the
  // untraced and traced twins that follow start equally warm.
  trace.disable();
  orch::DispatcherConfig probeDispatcher = config.dispatcher;
  probeDispatcher.workers = kFreshWorkers;
  const store::AppStoreGenerator probeWorld(config.store);
  const auto probe = orch::runStudy(
      probeWorld, probeDispatcher, std::string{},
      ingest::IngestConfig{.shards = kFreshShards},
      store::PrefetchConfig{.threads = kFreshPrefetch}, config.attribution);
  const TwinOutput untracedBefore =
      freshTwin(config, freshDir(base / "untraced"));

  // The traced campaign, one phase at a time.
  trace.reset();
  trace.enable();
  std::vector<std::pair<std::string, double>> phaseMs;
  auto phaseStart = Clock::now();
  const auto phase = [&](const char* next) {
    if (!phaseMs.empty()) phaseMs.back().second = msSince(phaseStart);
    if (next != nullptr) {
      trace.setPhase(next);
      phaseMs.emplace_back(next, 0.0);
    }
    phaseStart = Clock::now();
  };
  phase("fresh");
  const TwinOutput traced = freshTwin(config, freshDir(base / "fresh"));
  const store::AppStoreGenerator& generator = *traced.generator;
  phase("split");
  SplitOutput split = splitEmulate(generator, config.dispatcher);
  phase("replay");
  const ReplayOutput replay = replayTwin(generator, config, base / "fresh");
  const fs::path liveDir = freshDir(base / "live");
  phase("live");
  const LiveTraceOutput live =
      liveTraced(generator, config, split.runs, liveDir);
  phase(nullptr);
  trace.disable();
  split.runs.clear();
  // Untraced again: the overhead compares the traced twin with the mean of
  // the untraced runs on either side of it, so drift in machine speed
  // during the campaign does not read as tracing cost.
  const TwinOutput untracedAfter =
      freshTwin(config, freshDir(base / "untraced"));
  const double untracedMs =
      0.5 * (untracedBefore.wallMs + untracedAfter.wallMs);

  // Checks (untraced).
  addCheck(result, "traced fresh study == untraced twin",
           traced.digest == untracedBefore.digest &&
               untracedAfter.digest == untracedBefore.digest &&
               traced.apps == apps && traced.failed == 0,
           apps, hex(traced.digest) + " vs " + hex(untracedBefore.digest));
  addCheck(result, "replay of its checkpoints == fresh study",
           replay.digest == traced.digest && replay.runs == apps, apps,
           hex(replay.digest));
  orch::StudyConfig mergeConfig = config;
  mergeConfig.dispatcher.workers = 1;
  mergeConfig.ingest.shards = kReplayShards;
  const auto merged = orch::mergeStudies(mergeConfig, {liveDir.string()});
  const std::uint64_t liveDigest = renderDigest(merged.output.study);
  addCheck(result, "live daemon checkpoints merged == fresh study",
           liveDigest == traced.digest && live.unacked == 0 &&
               merged.output.appsReplayed == apps,
           apps, hex(liveDigest));
  const std::uint64_t probeDigest = renderDigest(probe.study);
  addCheck(result, "runStudy 2/1/1 == fresh study",
           probeDigest == traced.digest && probe.appsFailed == 0, apps,
           hex(probeDigest));

  // Span accounting: root spans against each phase's wall time.
  double campaignMs = 0.0;
  double spannedMs = 0.0;
  for (const auto& [name, ms] : phaseMs) {
    campaignMs += ms;
    spannedMs += trace.rootMs(name);
    result.notes.push_back("phase " + name + ": wall " + fixed(ms, 1) +
                           " ms, root spans " +
                           fixed(trace.rootMs(name), 1) + " ms");
  }
  const double uncoveredFrac = (campaignMs - spannedMs) / campaignMs;
  const bool covered = std::abs(uncoveredFrac) <= kCoverageSlack &&
                       trace.mismatches() == 0 && trace.openSpans() == 0;
  addCheck(result, "span self times sum to the traced wall time", covered, 1,
           "wall " + fixed(campaignMs, 1) + " ms, spans " +
               fixed(spannedMs, 1) + " ms, uncovered " +
               fixed(100.0 * uncoveredFrac, 2) + "% (slack " +
               fixed(100.0 * kCoverageSlack, 0) + "%), mismatched ends " +
               std::to_string(trace.mismatches()));

  const double n = static_cast<double>(apps);
  MetricMap m;
  const auto perApp = [&](const char* phase, const char* span) {
    return trace.get(phase, span).inclusiveMs / n;
  };
  const auto perStudy = [&](const char* phase, const char* span) {
    return trace.get(phase, span).inclusiveMs;
  };
  put(m, "store.world_ms", perStudy("fresh", "store.world"), "ms");
  put(m, "setup.corpus_ms", perStudy("fresh", "setup.corpus"), "ms");
  put(m, "store.make_job_ms", perApp("fresh", "store.make_job"), "ms");
  put(m, "orch.source_wait_ms", perApp("fresh", "orch.source_wait"), "ms");
  put(m, "store.prefetch_waits",
      static_cast<double>(probe.prefetchStats.consumerWaits), "count");
  put(m, "dex.sha256_ms", perApp("fresh", "dex.sha256"), "ms");
  put(m, "dex.apk_kib", static_cast<double>(split.apkBytes) / 1024.0 / n,
      "KiB");
  put(m, "orch.emulate_ms", perApp("fresh", "orch.emulate"), "ms");
  put(m, "hook.attach_ms", perApp("split", "hook.attach"), "ms");
  put(m, "rt.exercise_ms", perApp("split", "rt.exercise"), "ms");
  put(m, "net.capture_packets", static_cast<double>(split.packets) / n,
      "count");
  put(m, "core.coverage_ms", perApp("split", "core.coverage"), "ms");
  put(m, "core.attribute_ms", perApp("replay", "core.attribute"), "ms");
  put(m, "core.flows", static_cast<double>(replay.flows) / n, "count");
  put(m, "core.fold_ms", perApp("replay", "core.fold"), "ms");
  put(m, "orch.checkpoint_ms", perApp("fresh", "orch.checkpoint"), "ms");
  put(m, "orch.checkpoint_kib",
      static_cast<double>(directoryBytes(base / "fresh", ".spab")) / 1024.0 / n,
      "KiB");
  put(m, "orch.recovery_scan_ms", perApp("replay", "orch.recovery_scan"), "ms");
  put(m, "orch.job_teardown_ms", perApp("fresh", "orch.job_teardown"), "ms");
  put(m, "orch.teardown_ms", perApp("fresh", "orch.teardown"), "ms");
  put(m, "ingest.submit_ms", perApp("fresh", "ingest.submit"), "ms");
  put(m, "ingest.replay_ms", perApp("replay", "ingest.replay"), "ms");
  {
    const auto& ingestMetrics = traced.ingest;
    std::size_t samples = 0;
    for (const auto& shard : ingestMetrics.perShard)
      samples += shard.latencySamples;
    if (static_cast<double>(samples) * 0.01 < kMinSamplesBeyond)
      throw std::runtime_error("refusing ingest.fold_latency_ms.p99: " +
                               std::to_string(samples) + " samples");
    put(m, "ingest.fold_latency_ms.p50", ingestMetrics.latencyP50Ms, "ms");
    put(m, "ingest.fold_latency_ms.p99", ingestMetrics.latencyP99Ms, "ms");
    result.notes.push_back("ingest.fold_latency_ms percentiles over " +
                           std::to_string(samples) + " samples");
  }
  put(m, "spectord.submit_ms", perApp("live", "spectord.submit"), "ms");
  put(m, "spectord.ack_ms", perApp("live", "spectord.ack"), "ms");
  put(m, "spectord.fold_wait_ms", perApp("live", "spectord.fold_wait"), "ms");
  put(m, "spectord.wire_kib_per_run",
      static_cast<double>(live.wireBytes) / 1024.0 / n, "KiB");
  put(m, "spectord.rejected_frames", static_cast<double>(live.rejectedFrames),
      "count");
  put(m, "core.render_ms", perStudy("fresh", "core.render"), "ms");
  put(m, "trace.uncovered_frac", uncoveredFrac, "frac");
  put(m, "trace.overhead_frac", (traced.wallMs - untracedMs) / untracedMs,
      "frac");

  const struct {
    const char* phase;
    const char* span;
    bool perStudy;
  } kAllocSpans[] = {
      {"fresh", "store.world", true},      {"fresh", "setup.corpus", true},
      {"fresh", "store.make_job", false},  {"fresh", "orch.source_wait", false},
      {"fresh", "dex.sha256", false},      {"fresh", "orch.emulate", false},
      {"split", "hook.attach", false},     {"split", "rt.exercise", false},
      {"split", "core.coverage", false},   {"replay", "core.attribute", false},
      {"replay", "core.fold", false},      {"fresh", "orch.checkpoint", false},
      {"replay", "orch.recovery_scan", false},
      {"fresh", "ingest.submit", false},
      {"replay", "ingest.replay", false},  {"live", "spectord.submit", false},
      {"live", "spectord.ack", false},     {"fresh", "core.render", true},
  };
  for (const auto& a : kAllocSpans) {
    const double allocs =
        static_cast<double>(trace.get(a.phase, a.span).allocs);
    put(m, std::string("alloc.") + a.span, a.perStudy ? allocs : allocs / n,
        "count");
  }

  // The profile: every (phase, span) with inclusive and self time per app.
  result.notes.push_back(
      "traced campaign: " + std::to_string(apps) + " apps, wall " +
      fixed(campaignMs, 1) + " ms; untraced fresh twin " +
      fixed(untracedBefore.wallMs, 1) + " / " +
      fixed(untracedAfter.wallMs, 1) + " ms (before / after) vs traced " +
      fixed(traced.wallMs, 1) + " ms");
  result.notes.push_back(
      "profile: phase/span  calls  incl_ms/app  self_ms/app  allocs/app");
  for (const auto& [key, totals] : trace.totals()) {
    result.notes.push_back(
        "  " + key.first + "/" + key.second + "  " +
        std::to_string(totals.count) + "  " + fixed(totals.inclusiveMs / n) +
        "  " + fixed(totals.selfMs / n) + "  " +
        fixed(static_cast<double>(totals.allocs) / n, 1));
  }
  fs::remove_all(base);
  return m;
}

Result runTrace(const Options& options) {
  Result result;
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;
  const auto start = Clock::now();
  int rounds = 0;
  do {
    const MetricMap m = traceRound(options, options.seed + 7919ULL * rounds,
                                   result);
    for (const auto& [name, metric] : m) {
      values[name].push_back(metric.value);
      units[name] = metric.unit;
    }
    ++rounds;
  } while (msSince(start) < options.seconds * 1000.0);
  result.notes.push_back("traced rounds: " + std::to_string(rounds) +
                         " (per-layer values are medians over rounds)");
  for (const auto& [name, samples] : values)
    result.metrics.push_back(Metric{name, median(samples), units[name]});
  return result;
}

// ---------------------------------------------------------------------------
// Timed workloads.
// ---------------------------------------------------------------------------

/// One timed round's measurements.
struct Round {
  double wallS = 0.0;
  double cpuS = 0.0;
  double peakMb = 0.0;
  std::size_t apps = 0;     // attempted
  std::size_t appsOk = 0;   // completed and passed the output check
  std::uint64_t reportsKept = 0;
  std::uint64_t reportsEmitted = 0;
};

/// Times `body` as one round: VmHWM reset first, wall and process CPU
/// around it.
template <typename Body>
Round timedRound(Body&& body) {
  Round round;
  resetPeakRss();
  const double cpu0 = cpuSeconds();
  const auto start = Clock::now();
  body(round);
  round.wallS = msSince(start) / 1000.0;
  round.cpuS = cpuSeconds() - cpu0;
  round.peakMb = peakRssMb();
  return round;
}

/// Set-up, repeated: returns the last set-up's state and the median time.
template <typename Setup>
auto repeatedSetup(int repeats, std::vector<double>& seconds, Setup&& setup) {
  decltype(setup()) state{};
  for (int i = 0; i < std::max(repeats, 1); ++i) {
    state = {};  // release the previous set-up before building the next
    const auto start = Clock::now();
    state = setup();
    seconds.push_back(msSince(start) / 1000.0);
  }
  return state;
}

/// Per-run latencies of collector_live.
struct Latencies {
  std::vector<double> ackMs;
  std::vector<double> visibleMs;
};

void summarize(const Options& options, const std::vector<Round>& rounds,
               const std::vector<double>& setupSeconds,
               const Latencies* latencies, Result& result) {
  std::vector<double> appsPerS, cpuMsPerApp, peakMb;
  std::uint64_t kept = 0, emitted = 0, ok = 0, attempted = 0;
  for (const auto& r : rounds) {
    appsPerS.push_back(static_cast<double>(r.apps) / r.wallS);
    cpuMsPerApp.push_back(1000.0 * r.cpuS / static_cast<double>(r.apps));
    peakMb.push_back(r.peakMb);
    kept += r.reportsKept;
    emitted += r.reportsEmitted;
    ok += r.appsOk;
    attempted += r.apps;
  }
  result.attempted += attempted;
  result.failed += attempted - ok;
  if (ok != attempted) result.correct = false;
  double timedS = 0.0;
  for (const auto& r : rounds) timedS += r.wallS;
  result.notes.push_back(options.workload + ": " +
                         std::to_string(rounds.size()) + " timed rounds, " +
                         std::to_string(attempted) + " apps in " +
                         fixed(timedS, 2) + " s; set-up repeated " +
                         std::to_string(setupSeconds.size()) + "x");

  std::string perRound = "apps_per_s by round:";
  for (const double rate : appsPerS)
    perRound.append(" ").append(fixed(rate, 1));
  result.notes.push_back(perRound);

  auto& metrics = result.metrics;
  metrics.push_back({"apps_per_s", median(appsPerS), "1/s"});
  metrics.push_back({"cpu_ms_per_app", median(cpuMsPerApp), "ms"});
  metrics.push_back({"peak_rss_mb", median(peakMb), "MiB"});
  metrics.push_back({"setup_s", median(setupSeconds), "s"});
  metrics.push_back({"apps_ok_frac",
                     static_cast<double>(ok) / static_cast<double>(attempted),
                     "frac"});
  metrics.push_back(
      {"reports_kept_frac",
       emitted == 0 ? 1.0
                    : static_cast<double>(kept) / static_cast<double>(emitted),
       "frac"});
  // Per-run latencies are printed with their sample counts. They are not in
  // the result's metrics: every workload reports the same metric set, and
  // the batch workloads have no per-run latency.
  if (latencies != nullptr) {
    const auto add = [&](const std::string& name,
                         const std::vector<double>& samples, double q) {
      result.notes.push_back(name + " = " +
                             fixed(percentile(samples, q, name)) + " ms (n=" +
                             std::to_string(samples.size()) + ")");
    };
    add("run_ack_ms.p50", latencies->ackMs, 0.50);
    add("run_ack_ms.p99", latencies->ackMs, 0.99);
    add("run_visible_ms.p50", latencies->visibleMs, 0.50);
    add("run_visible_ms.p99", latencies->visibleMs, 0.99);
  }
}

bool timeLeft(Clock::time_point start, const Options& options,
              std::size_t rounds) {
  return rounds < static_cast<std::size_t>(options.sizes.minRounds) ||
         msSince(start) < options.seconds * 1000.0;
}

/// The worlds one run measures: `worlds` generated worlds of `apps` apps
/// each, seeded from --seed (the same seed gives the same worlds).
/// Timed rounds cycle through them, so a run's median covers every world.
std::vector<orch::StudyConfig> worldConfigs(const std::string& workload,
                                            const Options& options,
                                            std::size_t worlds,
                                            std::size_t apps) {
  std::vector<orch::StudyConfig> configs;
  for (std::size_t k = 0; k < worlds; ++k)
    configs.push_back(worldConfig(workload, options.seed * 64 + k, apps));
  return configs;
}

fs::path worldDir(const fs::path& base, std::size_t world) {
  return base / ("world" + std::to_string(world));
}

/// Marks rounds whose digest differs from their world's reference as
/// failed, and notes the outcome.
void checkRounds(const std::string& what, std::vector<Round>& rounds,
                 const std::vector<std::size_t>& roundWorld,
                 const std::vector<std::uint64_t>& digests,
                 const std::vector<std::uint64_t>& references,
                 Result& result) {
  std::size_t matched = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    if (digests[i] == references[roundWorld[i]]) {
      ++matched;
    } else {
      rounds[i].appsOk = 0;
    }
  }
  std::string refs;
  for (const auto reference : references)
    refs.append(" ").append(hex(reference));
  result.notes.push_back("check " + what + ":" + refs + ": " +
                         std::to_string(matched) + "/" +
                         std::to_string(rounds.size()) + " rounds match");
}

/// Set-up is everything before the first timed round: building the inputs
/// and one untimed warm-up round, whose output is checked like the others.
void checkWarmUp(bool ok, Result& result) {
  if (ok) return;
  result.correct = false;
  ++result.failed;
  result.notes.push_back("check warm-up round: MISMATCH");
}

// study_fresh ---------------------------------------------------------------

struct FreshState {
  std::vector<std::unique_ptr<store::AppStoreGenerator>> worlds;
  std::uint64_t warmDigest = 0;
};

Result runFresh(const Options& options) {
  Result result;
  const auto configs = worldConfigs(kFresh, options, options.sizes.freshWorlds,
                                    options.sizes.freshApps);
  orch::DispatcherConfig dispatcher = configs[0].dispatcher;
  dispatcher.workers = kFreshWorkers;
  const fs::path dir = options.workDir / "fresh";

  // One whole campaign over a generated world, checkpointing every run.
  const auto study = [&](const store::AppStoreGenerator& world,
                         Round& round) {
    const auto out = orch::runStudy(
        world, dispatcher, freshDir(dir).string(),
        ingest::IngestConfig{.shards = kFreshShards},
        store::PrefetchConfig{.threads = kFreshPrefetch},
        configs[0].attribution);
    round.apps = world.appCount();
    round.appsOk = out.appsProcessed;
    round.reportsKept = reportsKept(out.ingestMetrics);
    round.reportsEmitted = reportsEmitted(out.ingestMetrics);
    return fnv1a(renderStudy(out.study));
  };

  std::vector<double> setupSeconds;
  const FreshState state =
      repeatedSetup(options.sizes.setupRepeats, setupSeconds, [&] {
        FreshState fresh;
        for (const auto& config : configs)
          fresh.worlds.push_back(
              std::make_unique<store::AppStoreGenerator>(config.store));
        Round warm;
        fresh.warmDigest = study(*fresh.worlds[0], warm);
        return fresh;
      });

  std::vector<Round> rounds;
  std::vector<std::size_t> roundWorld;
  std::vector<std::uint64_t> digests;
  const auto start = Clock::now();
  while (timeLeft(start, options, rounds.size())) {
    const std::size_t k = rounds.size() % configs.size();
    std::uint64_t digest = 0;
    rounds.push_back(timedRound(
        [&](Round& r) { digest = study(*state.worlds[k], r); }));
    roundWorld.push_back(k);
    digests.push_back(digest);
  }
  fs::remove_all(dir);

  // Output check: every round against the serial twin of its world, built
  // from the same public pieces (the untraced twin of the traced study).
  // The check is untimed, so the twins run side by side.
  std::vector<std::uint64_t> twins(configs.size());
  {
    std::vector<std::thread> threads;
    std::atomic<std::size_t> nextWorld{0};
    std::exception_ptr failure;
    std::mutex failureMutex;
    for (std::size_t t = 0; t < kCheckThreads; ++t) {
      threads.emplace_back([&] {
        try {
          for (std::size_t k = nextWorld++; k < configs.size();
               k = nextWorld++) {
            const fs::path twinDir = freshDir(worldDir(dir, k));
            twins[k] = freshTwin(configs[k], twinDir).digest;
            fs::remove_all(twinDir);
          }
        } catch (...) {
          const std::scoped_lock lock(failureMutex);
          failure = std::current_exception();
        }
      });
    }
    for (auto& thread : threads) thread.join();
    if (failure) std::rethrow_exception(failure);
  }
  fs::remove_all(dir);
  checkWarmUp(state.warmDigest == twins[0], result);
  checkRounds("study_fresh rounds == serial twin", rounds, roundWorld,
              digests, twins, result);
  summarize(options, rounds, setupSeconds, nullptr, result);
  return result;
}

// study_replay --------------------------------------------------------------

struct ReplayState {
  std::vector<std::uint64_t> references;
  std::vector<std::size_t> apps;
  bool warmOk = false;
};

Result runReplay(const Options& options) {
  Result result;
  const auto configs = worldConfigs(kReplay, options,
                                    options.sizes.replayWorlds,
                                    options.sizes.replayApps);
  const fs::path dir = options.workDir / "replay";

  std::vector<orch::StudyConfig> merges = configs;
  for (auto& merge : merges) {
    merge.dispatcher.workers = 1;  // no gaps: the merge re-runs nothing
    merge.ingest.shards = kReplayShards;
  }
  const auto replay = [&](std::size_t k, Round& round, std::size_t apps) {
    const auto out =
        orch::mergeStudies(merges[k], {worldDir(dir, k).string()});
    round.apps = apps;
    round.appsOk = out.output.appsReplayed;
    round.reportsKept = reportsKept(out.output.ingestMetrics);
    round.reportsEmitted = reportsEmitted(out.output.ingestMetrics);
    return fnv1a(renderStudy(out.output.study));
  };

  // Set-up: a fresh study per world (all four threads) checkpoints every
  // run; its rendered study is what each replay must reproduce.
  std::vector<double> setupSeconds;
  const ReplayState state =
      repeatedSetup(options.sizes.setupRepeats, setupSeconds, [&] {
        ReplayState replayState;
        for (std::size_t k = 0; k < configs.size(); ++k) {
          orch::StudyConfig writer = configs[k];
          writer.artifactsDirectory = freshDir(worldDir(dir, k)).string();
          writer.dispatcher.workers = kFreshWorkers;
          writer.ingest.shards = kFreshShards;
          writer.prefetch.threads = kFreshPrefetch;
          const auto out = orch::runStudy(writer);
          if (out.appsFailed != 0)
            throw std::runtime_error("study_replay set-up: failed apps");
          replayState.references.push_back(fnv1a(renderStudy(out.study)));
          replayState.apps.push_back(out.appsProcessed);
        }
        Round warm;
        replayState.warmOk =
            replay(0, warm, replayState.apps[0]) == replayState.references[0];
        return replayState;
      });
  checkWarmUp(state.warmOk, result);

  std::vector<Round> rounds;
  std::vector<std::size_t> roundWorld;
  std::vector<std::uint64_t> digests;
  const auto start = Clock::now();
  while (timeLeft(start, options, rounds.size())) {
    const std::size_t k = rounds.size() % configs.size();
    std::uint64_t digest = 0;
    rounds.push_back(timedRound(
        [&](Round& r) { digest = replay(k, r, state.apps[k]); }));
    roundWorld.push_back(k);
    digests.push_back(digest);
  }
  fs::remove_all(dir);
  checkRounds("study_replay rounds == set-up study", rounds, roundWorld,
              digests, state.references, result);
  summarize(options, rounds, setupSeconds, nullptr, result);
  return result;
}

// collector_live ------------------------------------------------------------

struct LiveWorld {
  orch::StudyConfig config;
  std::unique_ptr<store::AppStoreGenerator> generator;
  std::vector<RecordedRun> runs;
  std::unordered_map<std::string, std::size_t> indexBySha;
  std::uint64_t reference = 0;
};

/// Emulates one world (4 threads, as study_fresh) through an in-process
/// pipeline whose study is the reference, recording each run's datagrams
/// and artifacts for the timed phase to stream.
LiveWorld setupLiveWorld(const orch::StudyConfig& config) {
  LiveWorld world;
  world.config = config;
  world.generator = std::make_unique<store::AppStoreGenerator>(config.store);
  const store::AppStoreGenerator& generator = *world.generator;
  const AttributionStack attribution(generator, config.attribution);
  core::StudyAggregator study;
  core::StudyAccumulator accumulator(study);
  ingest::IngestPipeline pipeline(ingest::IngestConfig{.shards = kFreshShards},
                                  attribution.rows(), &accumulator, {},
                                  attribution.columns());
  RecordingSink tee(pipeline);
  store::JobPrefetcher prefetcher(
      generator, store::PrefetchConfig{.threads = kFreshPrefetch});
  orch::DispatcherConfig dispatcherConfig = config.dispatcher;
  dispatcherConfig.workers = kFreshWorkers;
  orch::Dispatcher dispatcher(generator.farm(), &tee, dispatcherConfig);
  world.runs.resize(generator.appCount());
  std::mutex runsMutex;
  std::atomic<std::size_t> failed{0};
  dispatcher.runConcurrent(
      [&]() -> std::optional<orch::Dispatcher::Job> {
        auto item = prefetcher.next();
        if (!item) return std::nullopt;
        return orch::Dispatcher::Job{std::move(item->job.apk),
                                     std::move(item->job.program), item->index,
                                     std::move(item->apkSha256)};
      },
      [&](std::size_t index, core::RunArtifacts&& artifacts) {
        RecordedRun run{index, artifacts, RecordingSink::take()};
        {
          const std::scoped_lock lock(runsMutex);
          world.runs[index] = std::move(run);
        }
        pipeline.submitRun(index, std::move(artifacts));
      },
      [&](std::size_t index, const orch::Dispatcher::FailedJob&) {
        failed.fetch_add(1);
        pipeline.skip(index);
      });
  pipeline.drain();
  accumulator.finish();
  if (failed.load() != 0)
    throw std::runtime_error("collector_live set-up: failed apps");
  world.reference = fnv1a(renderStudy(study));
  for (const auto& run : world.runs) {
    if (!world.indexBySha.emplace(run.artifacts.apkSha256, run.index).second)
      throw std::runtime_error("collector_live set-up: duplicate apk digest");
  }
  return world;
}

struct LiveRound {
  Round round;
  bool match = false;
  std::vector<double> ackMs;      // acked runs only
  std::vector<double> visibleMs;  // runs the dashboard showed
};

/// One round: a fresh checkpointing daemon, a dashboard subscribed to
/// Totals, and two closed-loop ingest connections streaming every run of
/// the world. Only the streaming is timed; the merge check after it is not.
LiveRound liveRound(const LiveWorld& world, const fs::path& dir, bool timed) {
  const std::size_t runCount = world.runs.size();
  const auto attribution = std::make_unique<AttributionStack>(
      *world.generator, world.config.attribution);
  spectord::DaemonConfig daemonConfig;
  daemonConfig.ingest.shards = kLiveShards;
  daemonConfig.expectedRuns = runCount;
  daemonConfig.checkpointDirectory = freshDir(dir).string();
  spectord::SpectorDaemon daemon(daemonConfig, attribution->rows(false),
                                 attribution->columns(false));
  spectord::DashboardClient dashboard(daemon.connect(), 0xda5bULL);
  dashboard.subscribe(spectord::Topic::Totals);
  // poll() reads until its timeout expires, so wait in short slices.
  const auto snapshotDeadline = Clock::now() + std::chrono::seconds(30);
  while (!dashboard.waitForSnapshot(spectord::Topic::Totals,
                                    std::chrono::milliseconds(1))) {
    if (Clock::now() > snapshotDeadline)
      throw std::runtime_error("collector_live: no dashboard snapshot");
  }
  std::vector<std::unique_ptr<spectord::IngestClient>> clients;
  for (std::size_t c = 0; c < kLiveClients; ++c)
    clients.push_back(std::make_unique<spectord::IngestClient>(
        daemon.connect(), 0x1000ULL + c));

  std::vector<std::atomic<std::int64_t>> calledAt(runCount);
  std::vector<double> ackMs(runCount, 0.0), visibleMs(runCount, 0.0);
  std::vector<char> acked(runCount, 0);
  std::mutex visibleMutex;
  std::condition_variable visibleChanged;
  std::vector<char> visible(runCount, 0);  // guarded by visibleMutex
  std::atomic<std::size_t> clientErrors{0};
  const auto epoch = Clock::now();
  const auto nowNs = [&epoch] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch)
        .count();
  };

  const auto body = [&](Round& round) {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kLiveClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          for (std::size_t i = c; i < runCount; i += kLiveClients) {
            const RecordedRun& run = world.runs[i];
            for (const auto& datagram : run.datagrams)
              clients[c]->submitDatagram(datagram);
            const std::int64_t called = nowNs();
            calledAt[i].store(called, std::memory_order_release);
            const auto ack = clients[c]->completeRun(run.index, run.artifacts);
            ackMs[i] = static_cast<double>(nowNs() - called) / 1e6;
            acked[i] = ack.accepted && !ack.duplicate ? 1 : 0;
            // Closed loop: the next run starts once this one shows on the
            // dashboard, as a worker's next run would after it emulated.
            std::unique_lock lock(visibleMutex);
            if (!visibleChanged.wait_for(lock, std::chrono::seconds(30),
                                         [&] { return visible[i] != 0; }))
              throw std::runtime_error("run never became visible");
          }
        } catch (const std::exception&) {
          clientErrors.fetch_add(1);
        }
      });
    }
    // The driving thread polls the dashboard mirror: a run is visible once
    // its apk appears in the Totals bytes-by-app view.
    std::size_t seen = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (seen < runCount && Clock::now() < deadline &&
           clientErrors.load() == 0) {
      dashboard.poll(std::chrono::milliseconds(1));
      const auto& byApp = dashboard.mirror().totals.bytesByApp;
      if (byApp.size() == seen) continue;
      const std::int64_t now = nowNs();
      {
        const std::scoped_lock lock(visibleMutex);
        for (const auto& entry : byApp) {
          const auto it = world.indexBySha.find(entry.first);
          if (it == world.indexBySha.end() || visible[it->second]) continue;
          visible[it->second] = 1;
          ++seen;
          visibleMs[it->second] =
              static_cast<double>(
                  now - calledAt[it->second].load(std::memory_order_acquire)) /
              1e6;
        }
      }
      visibleChanged.notify_all();
    }
    for (auto& thread : threads) thread.join();
    round.apps = runCount;
    for (std::size_t i = 0; i < runCount; ++i)
      if (acked[i] && visible[i]) ++round.appsOk;
  };

  LiveRound out;
  if (timed) {
    out.round = timedRound(body);
  } else {
    body(out.round);
  }
  for (auto& client : clients) client->bye();
  clients.clear();
  dashboard.close();
  daemon.drain();
  const auto metrics = daemon.metrics();
  out.round.reportsKept = reportsKept(metrics);
  out.round.reportsEmitted = reportsEmitted(metrics);
  daemon.shutdown();
  if (clientErrors.load() != 0) out.round.appsOk = 0;
  for (std::size_t i = 0; i < runCount; ++i) {
    if (acked[i]) out.ackMs.push_back(ackMs[i]);
    if (visible[i]) out.visibleMs.push_back(visibleMs[i]);
  }

  // Output check: merge the daemon's checkpoint directory.
  orch::StudyConfig merge = world.config;
  merge.dispatcher.workers = 1;
  merge.ingest.shards = kReplayShards;
  const auto merged = orch::mergeStudies(merge, {dir.string()});
  out.match = fnv1a(renderStudy(merged.output.study)) == world.reference &&
              merged.output.appsReplayed == runCount;
  if (!out.match) out.round.appsOk = 0;
  fs::remove_all(dir);
  return out;
}

struct LiveState {
  std::vector<LiveWorld> worlds;
  bool warmOk = false;
};

Result runLive(const Options& options) {
  Result result;
  const auto configs = worldConfigs(kLive, options, options.sizes.liveWorlds,
                                    options.sizes.liveApps);
  const fs::path dir = options.workDir / "live";

  std::vector<double> setupSeconds;
  const LiveState state =
      repeatedSetup(options.sizes.setupRepeats, setupSeconds, [&] {
        LiveState live;
        for (const auto& config : configs)
          live.worlds.push_back(setupLiveWorld(config));
        const LiveRound warm = liveRound(live.worlds[0], dir, false);
        live.warmOk = warm.match && warm.round.appsOk == warm.round.apps;
        return live;
      });
  checkWarmUp(state.warmOk, result);

  Latencies latencies;
  std::vector<Round> rounds;
  std::size_t matched = 0;
  std::size_t timedRuns = 0;
  const auto start = Clock::now();
  while (timeLeft(start, options, rounds.size()) ||
         timedRuns < options.sizes.liveMinRuns) {
    const LiveWorld& world = state.worlds[rounds.size() % state.worlds.size()];
    LiveRound live = liveRound(world, dir, true);
    if (live.match) ++matched;
    latencies.ackMs.insert(latencies.ackMs.end(), live.ackMs.begin(),
                           live.ackMs.end());
    latencies.visibleMs.insert(latencies.visibleMs.end(),
                               live.visibleMs.begin(), live.visibleMs.end());
    timedRuns += live.round.apps;
    rounds.push_back(live.round);
  }
  std::string refs;
  for (const auto& world : state.worlds)
    refs.append(" ").append(hex(world.reference));
  result.notes.push_back(
      "check collector_live merged daemon checkpoints == set-up study:" +
      refs + ": " + std::to_string(matched) + "/" +
      std::to_string(rounds.size()) + " rounds match");
  summarize(options, rounds, setupSeconds, &latencies, result);
  return result;
}

}  // namespace

Sizes fullSizes() {
  return Sizes{.freshWorlds = 8,
               .replayWorlds = 2,
               .liveWorlds = 2,
               .freshApps = 75,
               .replayApps = 100,
               .liveApps = 100,
               .liveMinRuns = 1000,
               .traceApps = 100,
               .setupRepeats = 3,
               .minRounds = 4};
}

Sizes smokeSizes() {
  return Sizes{.freshWorlds = 2,
               .replayWorlds = 2,
               .liveWorlds = 2,
               .freshApps = 6,
               .replayApps = 6,
               .liveApps = 20,
               .liveMinRuns = 1000,
               .traceApps = 40,
               .setupRepeats = 2,
               .minRounds = 2};
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> kNames{kFresh, kReplay, kLive};
  return kNames;
}

Result runWorkload(const Options& options) {
  fs::create_directories(options.workDir);
  Result result;
  if (options.trace) {
    result = runTrace(options);
  } else if (options.workload == kFresh) {
    result = runFresh(options);
  } else if (options.workload == kReplay) {
    result = runReplay(options);
  } else if (options.workload == kLive) {
    result = runLive(options);
  } else {
    throw std::invalid_argument("unknown workload " + options.workload);
  }
  fs::remove_all(options.workDir);
  return result;
}

}  // namespace perfbench
