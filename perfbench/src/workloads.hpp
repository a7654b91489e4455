// The benchmark's workloads: study_fresh, study_replay, collector_live.
//
// Each one runs an untimed set-up (several times, reporting the median as
// setup_s), then a timed phase of repeated rounds until --seconds pass,
// checks every round's output, and reports the end-to-end metrics. With
// --trace 1 it instead runs the serial traced campaign (trace_campaign in
// workloads.cpp) over the workload's world shape and reports the per-layer
// metrics.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

/// Input sizes. `full` is what the benchmark measures; `smoke` is the tiny
/// size the benchmark's own test uses to check names, units and checks.
struct Sizes {
  std::size_t freshWorlds = 0;   // generated worlds per run, per workload;
  std::size_t replayWorlds = 0;  // timed rounds cycle through them
  std::size_t liveWorlds = 0;
  std::size_t freshApps = 0;   // apps per world (one study_fresh round)
  std::size_t replayApps = 0;  // apps per world (one study_replay round)
  std::size_t liveApps = 0;    // runs per world (one collector_live round)
  std::size_t liveMinRuns = 0; // collector_live runs per timed phase, at least
  std::size_t traceApps = 0;   // apps per traced campaign
  int setupRepeats = 0;        // set-ups per run (setup_s is their median)
  int minRounds = 0;           // timed rounds per run, at least
};

[[nodiscard]] Sizes fullSizes();
[[nodiscard]] Sizes smokeSizes();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Sizes sizes;
  /// Scratch space for checkpoint directories (inside the checkout).
  std::filesystem::path workDir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result (sample counts,
  /// check outcomes, the traced profile).
  std::vector<std::string> notes;
};

/// Workload names, in the order the runner lists them.
[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Run one workload. Throws on a set-up or harness failure (the runner
/// exits non-zero and prints no result).
[[nodiscard]] Result runWorkload(const Options& options);

}  // namespace perfbench
