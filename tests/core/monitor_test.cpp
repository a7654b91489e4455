#include "core/monitor.hpp"

#include <gtest/gtest.h>

namespace libspector::core {
namespace {

dex::ApkFile apkWithMethods(const std::vector<std::string>& signatures) {
  dex::ApkFile apk;
  dex::DexFile dexFile;
  dexFile.addClass("x");
  for (const auto& signature : signatures) dexFile.addMethod(signature);
  apk.dexFiles.push_back(std::move(dexFile));
  return apk;
}

TEST(MonitorTest, CoverageIntersectsTraceWithDex) {
  const auto apk = apkWithMethods({"La;->m1()V", "La;->m2()V", "La;->m3()V",
                                   "La;->m4()V"});
  const std::vector<std::string> trace = {
      "La;->m1()V",
      "La;->m3()V",
      "java.net.Socket.connect",           // framework entry, not in dex
      "android.os.AsyncTask$2.call",
  };
  const auto coverage = MethodMonitor::computeCoverage(trace, apk);
  EXPECT_EQ(coverage.totalMethods, 4u);
  EXPECT_EQ(coverage.coveredMethods, 2u);
  EXPECT_EQ(coverage.traceEntries, 4u);
  EXPECT_DOUBLE_EQ(coverage.ratio(), 0.5);
}

TEST(MonitorTest, EmptyTraceZeroCoverage) {
  const auto apk = apkWithMethods({"La;->m1()V"});
  const auto coverage = MethodMonitor::computeCoverage({}, apk);
  EXPECT_EQ(coverage.coveredMethods, 0u);
  EXPECT_DOUBLE_EQ(coverage.ratio(), 0.0);
}

TEST(MonitorTest, EmptyDexYieldsZeroRatioNotDivByZero) {
  const dex::ApkFile apk;
  const auto coverage = MethodMonitor::computeCoverage({"La;->m1()V"}, apk);
  EXPECT_EQ(coverage.totalMethods, 0u);
  EXPECT_DOUBLE_EQ(coverage.ratio(), 0.0);
}

TEST(MonitorTest, OverloadsCountedSeparately) {
  // §IV-C: type signatures distinguish overloaded variants.
  const auto apk = apkWithMethods({"La;->m(I)V", "La;->m(J)V"});
  const auto coverage = MethodMonitor::computeCoverage({"La;->m(I)V"}, apk);
  EXPECT_EQ(coverage.coveredMethods, 1u);
  EXPECT_EQ(coverage.totalMethods, 2u);
}

TEST(MonitorTest, RepeatedEntriesCountAsInASetIntersection) {
  // Every trace entry found in the dex counts, once per occurrence in the
  // trace, however often the dex repeats it.
  const auto apk = apkWithMethods({"La;->m1()V", "La;->m1()V", "La;->m2()V"});
  const auto coverage = MethodMonitor::computeCoverage(
      {"La;->m1()V", "La;->m1()V", "java.net.Socket.connect", ""}, apk);
  EXPECT_EQ(coverage.coveredMethods, 2u);
  EXPECT_EQ(coverage.totalMethods, 3u);
  EXPECT_EQ(coverage.traceEntries, 4u);
}

TEST(MonitorTest, TakeTraceFileMovesTheTraceOut) {
  MethodMonitor monitor;
  monitor.tracer().onMethodEntry("La;->m1()V");
  monitor.tracer().onMethodEntry("La;->m2()V");
  monitor.tracer().onMethodEntry("La;->m1()V");
  const auto copied = monitor.writeTraceFile();
  EXPECT_EQ(monitor.takeTraceFile(), copied);
  EXPECT_TRUE(monitor.writeTraceFile().empty());
}

TEST(MonitorTest, MonitorWiresUniqueTracer) {
  MethodMonitor monitor;
  monitor.tracer().onMethodEntry("La;->m1()V");
  monitor.tracer().onMethodEntry("La;->m1()V");
  monitor.tracer().onMethodEntry("La;->m2()V");
  const auto trace = monitor.writeTraceFile();
  ASSERT_EQ(trace.size(), 2u);  // deduplicated: the paper's ART modification
  EXPECT_EQ(trace[0], "La;->m1()V");
}

}  // namespace
}  // namespace libspector::core
