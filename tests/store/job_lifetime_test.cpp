// A job's apk and program each own their string tables (DESIGN.md §9).
//
// perfbench and the dispatcher move Job::apk and Job::program apart, and
// the interpreter runs a program with no apk beside it. These tests move
// the two apart, copy each, destroy the originals, and check that the
// copies still serialize, hash, translate frames and run exactly as the
// freshly made job does.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dex/disassembler.hpp"
#include "orch/emulator.hpp"
#include "store/generator.hpp"
#include "util/sha256.hpp"

namespace libspector::store {
namespace {

/// Everything a run observes of one (apk, program) pair.
struct Observed {
  std::vector<std::uint8_t> apkBytes;
  std::string sha;
  /// Per program method: signature, frame name and the table's first
  /// overload for that frame name.
  std::vector<std::string> names;
  std::vector<std::uint8_t> runBytes;

  bool operator==(const Observed&) const = default;
};

Observed observe(const AppStoreGenerator& generator, const dex::ApkFile& apk,
                 const rt::AppProgram& program, std::size_t index) {
  Observed out;
  out.apkBytes = apk.serialize();
  out.sha = util::toHex(apk.sha256());
  const dex::FrameTranslationTable table(apk);
  for (rt::MethodId id = 0; id < program.methodCount(); ++id) {
    out.names.emplace_back(program.signature(id));
    out.names.emplace_back(program.frameName(id));
    out.names.emplace_back(table.firstOverload(program.frameName(id), apk));
  }
  orch::EmulatorConfig config;
  config.seed = 100 + index;
  config.monkey.events = 80;
  config.scenario = generator.config().scenarios;
  orch::EmulatorInstance emulator(generator.farm(), nullptr, config);
  out.runBytes = emulator.run(apk, program).serialize();
  return out;
}

TEST(JobLifetimeTest, ApkAndProgramMovedApartCopiedAndOrphanedRunTheSame) {
  StoreConfig config;
  config.appCount = 6;
  config.seed = 21;
  config.methodScale = 0.05;
  config.scenarios = {.keepAliveReuse = true,
                      .adversarialApps = true,
                      .backgroundSync = true};
  const AppStoreGenerator generator(config);
  for (std::size_t i = 0; i < generator.appCount(); ++i) {
    const auto fresh = generator.makeJob(i);
    const Observed want = observe(generator, fresh.apk, fresh.program, i);
    ASSERT_FALSE(want.names.empty());

    auto job = std::make_unique<AppStoreGenerator::Job>(generator.makeJob(i));
    auto apk = std::make_unique<dex::ApkFile>(std::move(job->apk));
    auto program = std::make_unique<rt::AppProgram>(std::move(job->program));
    job.reset();
    dex::ApkFile apkCopy = *apk;
    rt::AppProgram programCopy = *program;
    apk.reset();
    program.reset();
    EXPECT_TRUE(observe(generator, apkCopy, programCopy, i) == want)
        << "app " << i;

    // And once more through a move of the copies.
    const dex::ApkFile movedApk = std::move(apkCopy);
    const rt::AppProgram movedProgram = std::move(programCopy);
    EXPECT_TRUE(observe(generator, movedApk, movedProgram, i) == want)
        << "app " << i;
  }
}

TEST(JobLifetimeTest, StringTablesInsideTheSmallBufferSurviveCopyAndMove) {
  // Ten characters: the whole arena fits in std::string's inline buffer,
  // which a move copies rather than hands over.
  auto dex = std::make_unique<dex::DexFile>();
  dex->addClass("a", {"La;->m()V"});
  auto program = std::make_unique<rt::AppProgram>();
  program->addMethod("La;->m()V", {});

  const dex::DexFile dexCopy = *dex;
  const rt::AppProgram programCopy = *program;
  const dex::DexFile dexMoved = std::move(*dex);
  const rt::AppProgram programMoved = std::move(*program);
  dex.reset();
  program.reset();
  for (const dex::DexFile* d : {&dexCopy, &dexMoved}) {
    ASSERT_EQ(d->classCount(), 1u);
    EXPECT_EQ(d->className(0), "a");
    EXPECT_EQ(d->signature(0), "La;->m()V");
  }
  for (const rt::AppProgram* p : {&programCopy, &programMoved}) {
    ASSERT_EQ(p->methodCount(), 1u);
    EXPECT_EQ(p->signature(0), "La;->m()V");
    EXPECT_EQ(p->frameName(0), "a.m");
  }
}

}  // namespace
}  // namespace libspector::store
