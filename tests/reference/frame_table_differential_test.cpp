// Frame-translation differential: dex::FrameTranslationTable (a hash index
// into the apk) against the frozen string-owning seed table.
//
// For every apk of generated worlds — two store seeds, workload scenarios
// all off and all on — with overloads added in and across dex files, every
// method's frame name, near misses of those names and the framework frames
// of the runtime's wrapper chains are looked up in both tables, which must
// return the same overloads in the same dex order. A hand-built apk with
// two frame names whose 32-bit hashes collide shows that a lookup returns
// only its own name's signatures.
#include "reference/seed_frame_table.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "dex/disassembler.hpp"
#include "dex/type_signature.hpp"
#include "rt/framework.hpp"
#include "store/generator.hpp"

namespace libspector::reference {
namespace {

constexpr std::size_t kApps = 25;

std::vector<std::string> owned(const std::vector<std::string_view>& views) {
  return {views.begin(), views.end()};
}

/// Frame names a stack trace can carry that no generated apk defines.
std::vector<std::string> frameworkFrames() {
  std::vector<std::string> out;
  for (const auto engine :
       {rt::HttpEngine::OkHttp, rt::HttpEngine::UrlConnection,
        rt::HttpEngine::ApacheHttp})
    for (const auto frame : rt::engineChain(engine)) out.emplace_back(frame);
  for (const auto frame : rt::asyncTaskChain()) out.emplace_back(frame);
  for (const auto frame : rt::systemThreadChain()) out.emplace_back(frame);
  out.emplace_back(rt::kRequestBoundaryFrame);
  out.emplace_back(rt::kReflectMethodInvokeFrame);
  out.emplace_back(rt::kReflectProxyInvokeFrame);
  out.emplace_back("");
  return out;
}

/// Names one edit away from an indexed frame name: none may match it.
std::vector<std::string> nearMisses(const std::string& frameName) {
  std::string slashed = frameName;
  for (char& c : slashed)
    if (c == '.') c = '/';
  return {frameName + "x", frameName.substr(0, frameName.size() - 1),
          frameName.substr(0, frameName.rfind('.')), std::move(slashed),
          "." + frameName};
}

/// `signature` with an extra int parameter: another overload of its frame.
std::string overloadOf(std::string_view signature) {
  std::string out(signature);
  out.insert(out.find('(') + 1, "I");
  return out;
}

/// The generated apk plus overloads, which generated apps do not have: in
/// every third class an overload of its last method is inserted first, and
/// a trailing dex file holds an overload of every seventh method and a
/// malformed entry. Every generated method stays, in its original order.
dex::ApkFile withOverloads(dex::ApkFile apk) {
  dex::DexFile extra;
  std::size_t method = 0;
  std::size_t classIndex = 0;
  for (auto& dexFile : apk.dexFiles) {
    dex::DexFile rebuilt;
    for (std::size_t c = 0; c < dexFile.classCount(); ++c) {
      const dex::MethodRange methods = dexFile.classMethods(c);
      rebuilt.addClass(dexFile.className(c));
      if (methods.size() == 0) continue;
      for (std::size_t m = methods.begin; m < methods.end; ++m)
        if (method++ % 7 == 0)
          extra.addClass(dexFile.className(c),
                         {overloadOf(dexFile.signature(m))});
      if (classIndex++ % 3 == 0)
        rebuilt.addMethod(overloadOf(dexFile.signature(methods.end - 1)));
      for (std::size_t m = methods.begin; m < methods.end; ++m)
        rebuilt.addMethod(dexFile.signature(m));
    }
    dexFile = std::move(rebuilt);
  }
  extra.addClass("broken", {"Lbroken;->m("});
  apk.dexFiles.push_back(std::move(extra));
  return apk;
}

struct WorldParam {
  std::uint64_t seed = 0;
  bool scenarios = false;
};

void PrintTo(const WorldParam& param, std::ostream* out) {
  *out << "seed" << param.seed
       << (param.scenarios ? "_scenariosOn" : "_scenariosOff");
}

class FrameTableDifferentialTest
    : public ::testing::TestWithParam<WorldParam> {};

TEST_P(FrameTableDifferentialTest, IndexMatchesTheSeedTableOnEveryName) {
  const auto [seed, scenarios] = GetParam();
  store::StoreConfig config;
  config.appCount = kApps;
  config.seed = seed;
  config.scenarios.keepAliveReuse = scenarios;
  config.scenarios.adversarialApps = scenarios;
  config.scenarios.backgroundSync = scenarios;
  const store::AppStoreGenerator generator(config);
  const auto framework = frameworkFrames();

  std::size_t names = 0;
  std::size_t overloaded = 0;
  for (std::size_t i = 0; i < generator.appCount(); ++i) {
    const dex::ApkFile apk = withOverloads(generator.makeJob(i).apk);
    const SeedFrameTable expected(apk);
    const dex::FrameTranslationTable table(apk);
    const auto check = [&](const std::string& frameName) {
      const auto& want = expected.lookup(frameName);
      ASSERT_EQ(owned(table.lookup(frameName, apk)), want)
          << "app " << i << " frame '" << frameName << "'";
      ASSERT_EQ(table.firstOverload(frameName, apk),
                want.empty() ? std::string_view() : std::string_view(want[0]))
          << "app " << i << " frame '" << frameName << "'";
    };
    for (const auto& dexFile : apk.dexFiles) {
      for (std::size_t m = 0; m < dexFile.methodCount(); ++m) {
        const auto signature = dex::TypeSignature::parse(dexFile.signature(m));
        if (!signature) continue;
        const std::string frameName = signature->frameName();
        check(frameName);
        if (expected.lookup(frameName).size() > 1) ++overloaded;
        for (const auto& miss : nearMisses(frameName)) check(miss);
        ++names;
      }
    }
    for (const auto& frameName : framework) check(frameName);
  }
  // The comparison is only as strong as the names it sees.
  EXPECT_GT(names, kApps * 100);
  EXPECT_GT(overloaded, 0u);
}

INSTANTIATE_TEST_SUITE_P(Worlds, FrameTableDifferentialTest,
                         ::testing::Values(WorldParam{5, false},
                                           WorldParam{5, true},
                                           WorldParam{77, false},
                                           WorldParam{77, true}));

TEST(FrameTableCollisionTest, CollidingNamesReturnOnlyTheirOwnSignatures) {
  // Found by brute force over "com.example.C<n>.m": both names hash to
  // 0x231fad70 under 32-bit FNV-1a.
  const std::string first = "com.example.C983095.m";
  const std::string second = "com.example.C1032640.m";
  ASSERT_EQ(dex::FrameTranslationTable::hashFrameName(first),
            dex::FrameTranslationTable::hashFrameName(second));

  // The second name's method comes first in dex order, so it leads the
  // entries behind the shared hash.
  dex::ApkFile apk;
  dex::DexFile dexFile;
  dexFile.addClass("com.example.C1032640", {"Lcom/example/C1032640;->m(J)V"});
  dexFile.addClass("com.example.C983095", {"Lcom/example/C983095;->m()V",
                                           "Lcom/example/C983095;->m(I)V"});
  apk.dexFiles.push_back(std::move(dexFile));

  const dex::FrameTranslationTable table(apk);
  const SeedFrameTable expected(apk);
  EXPECT_EQ(owned(table.lookup(first, apk)),
            (std::vector<std::string>{"Lcom/example/C983095;->m()V",
                                      "Lcom/example/C983095;->m(I)V"}));
  EXPECT_EQ(owned(table.lookup(second, apk)),
            (std::vector<std::string>{"Lcom/example/C1032640;->m(J)V"}));
  EXPECT_EQ(table.firstOverload(first, apk), "Lcom/example/C983095;->m()V");
  EXPECT_EQ(table.firstOverload(second, apk), "Lcom/example/C1032640;->m(J)V");
  EXPECT_EQ(owned(table.lookup(first, apk)), expected.lookup(first));
  EXPECT_EQ(owned(table.lookup(second, apk)), expected.lookup(second));
}

}  // namespace
}  // namespace libspector::reference
