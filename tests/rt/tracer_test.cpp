#include "rt/tracer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace libspector::rt {
namespace {

TEST(RingBufferTracerTest, RecordsEveryCallUpToCapacity) {
  RingBufferTracer tracer(3);
  tracer.onMethodEntry("a");
  tracer.onMethodEntry("a");  // repeated calls are recorded (stock behaviour)
  tracer.onMethodEntry("b");
  const auto trace = tracer.traceFile();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], "a");
  EXPECT_EQ(trace[1], "a");
  EXPECT_EQ(tracer.droppedCount(), 0u);
}

TEST(RingBufferTracerTest, DropsWhenFull) {
  // The paper: the stock profiler buffer "is filled within seconds of app
  // initialization" because repeated calls are all recorded.
  RingBufferTracer tracer(2);
  tracer.onMethodEntry("a");
  tracer.onMethodEntry("a");
  tracer.onMethodEntry("b");  // lost: the unique method b is never recorded
  tracer.onMethodEntry("c");
  EXPECT_EQ(tracer.traceFile().size(), 2u);
  EXPECT_EQ(tracer.droppedCount(), 2u);
  const auto trace = tracer.traceFile();
  EXPECT_EQ(trace[0], "a");
  EXPECT_EQ(trace[1], "a");
}

TEST(UniqueMethodTracerTest, DeduplicatesAndKeepsFirstSeenOrder) {
  UniqueMethodTracer tracer;
  tracer.onMethodEntry("b");
  tracer.onMethodEntry("a");
  tracer.onMethodEntry("b");
  tracer.onMethodEntry("c");
  tracer.onMethodEntry("a");
  const auto trace = tracer.traceFile();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], "b");
  EXPECT_EQ(trace[1], "a");
  EXPECT_EQ(trace[2], "c");
  EXPECT_EQ(tracer.uniqueCount(), 3u);
  EXPECT_EQ(tracer.totalEntries(), 5u);
  EXPECT_EQ(tracer.droppedCount(), 0u);
}

TEST(UniqueMethodTracerTest, TakeTraceFileEmptiesTheTracer) {
  UniqueMethodTracer tracer;
  tracer.onMethodEntry("a");
  tracer.onMethodEntry("b");
  tracer.onMethodEntry("a");
  EXPECT_EQ(tracer.takeTraceFile(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(tracer.uniqueCount(), 0u);
  tracer.onMethodEntry("b");  // recorded afresh
  EXPECT_EQ(tracer.traceFile(), (std::vector<std::string>{"b"}));
}

TEST(UniqueMethodTracerTest, NeverDropsUnderLoad) {
  UniqueMethodTracer tracer;
  for (int i = 0; i < 100000; ++i)
    tracer.onMethodEntry("method" + std::to_string(i % 500));
  EXPECT_EQ(tracer.uniqueCount(), 500u);
  EXPECT_EQ(tracer.totalEntries(), 100000u);
  const auto trace = tracer.traceFile();  // first-seen order across growth
  for (std::size_t i = 0; i < trace.size(); ++i)
    ASSERT_EQ(trace[i], "method" + std::to_string(i));
  EXPECT_EQ(tracer.droppedCount(), 0u);
}

TEST(TracerComparisonTest, ModificationBeatsStockOnRepetitiveWorkload) {
  // The ablation behind the paper's ART change: with a hot loop, the stock
  // buffer misses methods that run later, the unique tracer does not.
  RingBufferTracer stock(100);
  UniqueMethodTracer modified;
  for (int i = 0; i < 1000; ++i) {
    stock.onMethodEntry("hot.loop.method");
    modified.onMethodEntry("hot.loop.method");
  }
  stock.onMethodEntry("late.unique.method");
  modified.onMethodEntry("late.unique.method");

  const auto stockTrace = stock.traceFile();
  EXPECT_EQ(std::count(stockTrace.begin(), stockTrace.end(),
                       "late.unique.method"),
            0);  // lost
  const auto modifiedTrace = modified.traceFile();
  EXPECT_EQ(std::count(modifiedTrace.begin(), modifiedTrace.end(),
                       "late.unique.method"),
            1);  // captured
}

}  // namespace
}  // namespace libspector::rt
