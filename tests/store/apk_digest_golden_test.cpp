// Byte-identity golden for generated apks.
//
// Every other golden hashes what a study *renders*; nothing else pins the
// apk bytes themselves. The apk's sha256 is its identity everywhere
// (supervisor reports, checkpoints, the result database), so a change to
// makeJob that reorders classes or methods, or a hasher that drifts, must
// show up here even when the rendered study happens not to move.
//
// Each world folds, per app, the hex sha256 of the apk, the program's
// method count and every program frame name into one FNV-1a 64. The values
// were computed before makeJob and the hasher were optimised, so they
// prove the optimised code produces the same bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>

#include "store/generator.hpp"
#include "util/sha256.hpp"

namespace libspector::store {
namespace {

constexpr std::size_t kApps = 25;

struct Fnv1a64 {
  std::uint64_t value = 0xcbf29ce484222325ULL;
  void add(std::string_view bytes) {
    for (const unsigned char c : bytes) {
      value ^= c;
      value *= 0x100000001b3ULL;
    }
  }
};

StoreConfig worldConfig(std::uint64_t seed, bool scenariosOn) {
  StoreConfig config;
  config.appCount = kApps;
  config.seed = seed;
  config.scenarios.keepAliveReuse = scenariosOn;
  config.scenarios.adversarialApps = scenariosOn;
  config.scenarios.backgroundSync = scenariosOn;
  return config;
}

std::uint64_t worldDigest(const StoreConfig& config) {
  const AppStoreGenerator generator(config);
  EXPECT_EQ(generator.appCount(), kApps);
  Fnv1a64 fnv;
  for (std::size_t i = 0; i < generator.appCount(); ++i) {
    const auto job = generator.makeJob(i);
    const auto sha = job.apk.sha256();
    // The streaming walk and the materialized bytes must agree on every
    // real apk, not just on the synthetic field sequences of sha256_test.
    const auto bytes = job.apk.serialize();
    EXPECT_EQ(sha, util::Sha256::hash(std::span(bytes.data(), bytes.size())))
        << "app " << i;
    fnv.add(util::toHex(sha));
    fnv.add(std::to_string(job.program.methodCount()));
    for (rt::MethodId id = 0; id < job.program.methodCount(); ++id)
      fnv.add(job.program.frameName(id));
  }
  return fnv.value;
}

struct GoldenCase {
  std::uint64_t seed;
  bool scenariosOn;
  std::uint64_t digest;
};

void PrintTo(const GoldenCase& c, std::ostream* out) {
  *out << "seed " << c.seed << (c.scenariosOn ? ", scenarios on" : ", scenarios off");
}

class ApkDigestGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ApkDigestGolden, WorldDigestIsPinned) {
  const auto& param = GetParam();
  const auto config = worldConfig(param.seed, param.scenariosOn);
  const std::uint64_t digest = worldDigest(config);
  EXPECT_EQ(digest, param.digest) << "got 0x" << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, ApkDigestGolden,
    ::testing::Values(GoldenCase{5, false, 0xbcabf91b88f6b840ULL},
                      GoldenCase{5, true, 0x8ea0733d63210616ULL},
                      GoldenCase{77, false, 0x3166b0d0344b5884ULL},
                      GoldenCase{77, true, 0x320bde77a7fae2f0ULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return "Seed" + std::to_string(info.param.seed) +
             (info.param.scenariosOn ? "ScenariosOn" : "ScenariosOff");
    });

}  // namespace
}  // namespace libspector::store
