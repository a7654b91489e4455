// perfbench_study: the whole-study benchmark program.
//
//   perfbench_study --workload study_fresh --seed 1 --seconds 10 --trace 0
//   perfbench_study --filter study_ --size smoke     (every matching workload)
//
// Prints human-readable notes, one `name = value unit` line per metric and,
// as the last line of each workload, one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// Exits non-zero (printing no result) when the harness itself fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "util/log.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_study: %s\n"
               "usage: perfbench_study (--workload NAME | --filter SUBSTRING)\n"
               "         [--seed N] [--seconds S] [--trace 0|1]\n"
               "         [--size full|smoke] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

/// Name filter in the style of udipe's name_filter: a workload runs when
/// the key is a substring of its name (the empty key matches every one).
bool matches(std::string_view key, std::string_view name) {
  return name.find(key) != std::string_view::npos;
}

std::string jsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void print(const perfbench::Result& result) {
  for (const auto& note : result.notes) std::printf("# %s\n", note.c_str());
  for (const auto& metric : result.metrics)
    std::printf("%s = %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  std::string json = std::string("{\"correct\": ") +
                     (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& metric = result.metrics[i];
    if (i != 0) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " + jsonNumber(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.sizes = perfbench::fullSizes();
  std::string workload;
  std::string filter;
  bool haveFilter = false;
  std::filesystem::path workDir;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value after an option");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--filter") {
        filter = value();
        haveFilter = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        if (!(options.seconds > 0.0)) usage("--seconds must be positive");
      } else if (arg == "--trace") {
        const std::string trace = value();
        if (trace != "0" && trace != "1") usage("--trace takes 0 or 1");
        options.trace = trace == "1";
      } else if (arg == "--size") {
        const std::string size = value();
        if (size == "full") {
          options.sizes = perfbench::fullSizes();
        } else if (size == "smoke") {
          options.sizes = perfbench::smokeSizes();
        } else {
          usage("--size takes full or smoke");
        }
      } else if (arg == "--work-dir") {
        workDir = value();
      } else {
        usage(("unknown argument " + std::string(arg)).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + std::string(arg)).c_str());
    }
  }

  std::vector<std::string> selected;
  for (const auto& name : perfbench::workloadNames()) {
    if (haveFilter ? matches(filter, name) : name == workload)
      selected.push_back(name);
  }
  if (selected.empty()) usage("no workload matches");
  if (workDir.empty())
    workDir = std::filesystem::current_path() / ".bench_build" / "work";

  // The library logs every study at info level; keep stdout for results.
  libspector::util::setLogLevel(libspector::util::LogLevel::Warn);
  try {
    for (const auto& name : selected) {
      options.workload = name;
      options.workDir = workDir / (name + "-" + std::to_string(::getpid()));
      print(perfbench::runWorkload(options));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_study: %s\n", e.what());
    return 1;
  }
  return 0;
}
