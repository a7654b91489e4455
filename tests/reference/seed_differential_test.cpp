// Flow-level differential: the production attributor against the frozen
// seed attributor.
//
// Every run of a generated world is attributed four ways — the seed code
// in both of its modes, the production core::TrafficAttributor serially,
// and the production attributor shared by 8 threads racing on one cold
// frame cache — and every FlowRecord field must agree. The worlds cover
// two store seeds with the workload scenarios (keep-alive reuse,
// adversarial laundering, background sync) all off and all on, so window
// splitting and trampoline elision are compared too.
#include "reference/seed_attributor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <ostream>
#include <thread>
#include <vector>

#include "core/attribution.hpp"
#include "orch/emulator.hpp"
#include "radar/corpus.hpp"
#include "store/generator.hpp"
#include "vtsim/categorizer.hpp"

namespace libspector::reference {
namespace {

constexpr std::size_t kApps = 25;
constexpr std::size_t kThreads = 8;

/// Every field of a flow, rendered so that a mismatch names the field.
std::string flowFields(const core::FlowRecord& flow) {
  std::ostringstream out;
  out << "apk=" << flow.apkSha256.view() << " pkg=" << flow.appPackage.view()
      << " appcat=" << flow.appCategory.view()
      << " origin=" << flow.originLibrary.view()
      << " sig=" << flow.originSignature.view()
      << " two=" << flow.twoLevelLibrary.view()
      << " libcat=" << flow.libraryCategory.view()
      << " builtin=" << flow.builtinOrigin << " ant=" << flow.antOrigin
      << " common=" << flow.commonOrigin << " domain=" << flow.domain.view()
      << " domcat=" << flow.domainCategory.view()
      << " pair=" << flow.socketPair.str()
      << " connect=" << flow.connectTimeMs << " sent=" << flow.sentBytes
      << " recv=" << flow.recvBytes << " ordinal=" << flow.requestOrdinal
      << " rtt=" << flow.rttMs;
  return out.str();
}

std::vector<std::string> fieldsOf(const std::vector<core::FlowRecord>& flows) {
  std::vector<std::string> out;
  out.reserve(flows.size());
  for (const auto& flow : flows) out.push_back(flowFields(flow));
  return out;
}

/// One generated world: its store, its emulated runs, and a categorizer
/// factory (each attributor gets its own verdict cache).
struct World {
  World(std::uint64_t seed, bool scenarios) {
    store::StoreConfig storeConfig;
    storeConfig.appCount = kApps;
    storeConfig.seed = seed;
    storeConfig.methodScale = 0.05;
    rt::ScenarioConfig flags;
    flags.keepAliveReuse = scenarios;
    flags.adversarialApps = scenarios;
    flags.backgroundSync = scenarios;
    storeConfig.scenarios = flags;
    generator = std::make_unique<store::AppStoreGenerator>(storeConfig);
    for (std::size_t i = 0; i < generator->appCount(); ++i) {
      const auto job = generator->makeJob(i);
      orch::EmulatorConfig config;
      config.monkey.events = 100;
      config.monkey.throttleMs = 50;
      config.seed = 0x11b59ec701ULL + i;
      config.scenario = flags;
      orch::EmulatorInstance emulator(generator->farm(), nullptr, config);
      runs.push_back(emulator.run(job.apk, job.program));
    }
  }

  [[nodiscard]] std::unique_ptr<vtsim::DomainCategorizer> categorizer() const {
    return std::make_unique<vtsim::DomainCategorizer>(
        vtsim::defaultVendorPanel(), [this](const std::string& domain) {
          return generator->domainTruth(domain);
        });
  }

  const radar::LibraryCorpus corpus = radar::LibraryCorpus::builtin();
  std::unique_ptr<store::AppStoreGenerator> generator;
  std::vector<core::RunArtifacts> runs;
};

struct WorldParam {
  std::uint64_t seed = 0;
  bool scenarios = false;
};

void PrintTo(const WorldParam& param, std::ostream* out) {
  *out << "seed" << param.seed
       << (param.scenarios ? "_scenariosOn" : "_scenariosOff");
}

class SeedDifferentialTest : public ::testing::TestWithParam<WorldParam> {};

TEST_P(SeedDifferentialTest, ProductionMatchesTheSeedOnEveryFlow) {
  const auto [seed, scenarios] = GetParam();
  const World world(seed, scenarios);

  const auto seedCategorizer = world.categorizer();
  const SeedAttributor seedAttributor(world.corpus, *seedCategorizer,
                                      SeedMode::Seed);
  const auto noInternCategorizer = world.categorizer();
  const SeedAttributor noInternAttributor(
      world.corpus, *noInternCategorizer, SeedMode::NoInterning);
  const auto serialCategorizer = world.categorizer();
  const core::TrafficAttributor serial(world.corpus, *serialCategorizer);

  // Shared by every thread, with a cold cross-run frame cache: the threads
  // race to fill it while they attribute.
  const auto sharedCategorizer = world.categorizer();
  const core::TrafficAttributor shared(world.corpus, *sharedCategorizer);
  std::vector<std::vector<core::FlowRecord>> parallelFlows(world.runs.size());
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < world.runs.size();
             i = next.fetch_add(1))
          parallelFlows[i] = shared.attribute(world.runs[i]);
      });
    }
  }

  std::size_t flows = 0;
  std::size_t reusedRequests = 0;
  for (std::size_t i = 0; i < world.runs.size(); ++i) {
    const auto& run = world.runs[i];
    const auto expected = fieldsOf(seedAttributor.attribute(run));
    const auto production = serial.attribute(run);
    EXPECT_EQ(fieldsOf(noInternAttributor.attribute(run)), expected)
        << "no-interning seed mode diverged on run " << i;
    EXPECT_EQ(fieldsOf(production), expected)
        << "production attributor diverged on run " << i;
    EXPECT_EQ(fieldsOf(parallelFlows[i]), expected)
        << "8-thread shared attributor diverged on run " << i;
    flows += production.size();
    for (const auto& flow : production)
      if (flow.requestOrdinal > 0) ++reusedRequests;
  }
  // The comparison is only as strong as the traffic it sees.
  EXPECT_GT(flows, kApps);
  if (scenarios) EXPECT_GT(reusedRequests, 0u);
}

INSTANTIATE_TEST_SUITE_P(Worlds, SeedDifferentialTest,
                         ::testing::Values(WorldParam{5, false},
                                           WorldParam{5, true},
                                           WorldParam{77, false},
                                           WorldParam{77, true}));

}  // namespace
}  // namespace libspector::reference
