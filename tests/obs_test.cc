// Unit tests for the observability subsystem (src/obs): histogram bucket
// boundaries and percentile math, concurrent counter/histogram recording
// (run under TSan in CI), trace-ring wraparound and Chrome-JSON export.

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/op_context.h"
#include "obs/slow_op_log.h"
#include "obs/trace.h"

namespace gistcr {
namespace obs {
namespace {

// ---------------------------------------------------------------------
// Histogram buckets
// ---------------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1), 1u);
  EXPECT_EQ(Histogram::BucketFor(2), 2u);
  EXPECT_EQ(Histogram::BucketFor(3), 2u);
  EXPECT_EQ(Histogram::BucketFor(4), 3u);
  EXPECT_EQ(Histogram::BucketFor(7), 3u);
  EXPECT_EQ(Histogram::BucketFor(8), 4u);
  EXPECT_EQ(Histogram::BucketFor(1023), 10u);
  EXPECT_EQ(Histogram::BucketFor(1024), 11u);
  // Everything past the last bound lands in the final bucket.
  EXPECT_EQ(Histogram::BucketFor(UINT64_MAX), Histogram::kNumBuckets - 1);

  for (size_t i = 1; i + 1 < Histogram::kNumBuckets; i++) {
    const uint64_t lo = Histogram::BucketLowerBound(i);
    const uint64_t hi = Histogram::BucketUpperBound(i);
    EXPECT_EQ(hi, lo * 2) << "bucket " << i;
    EXPECT_EQ(Histogram::BucketFor(lo), i);
    EXPECT_EQ(Histogram::BucketFor(hi - 1), i);
    EXPECT_EQ(Histogram::BucketFor(hi), i + 1);
  }
}

TEST(HistogramTest, SnapshotCountsSumMinMax) {
  Histogram h;
  h.Record(0);
  h.Record(5);
  h.Record(5);
  h.Record(1000);
  const auto s = h.GetSnapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 1010u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 252.5);
  EXPECT_EQ(s.buckets[0], 1u);                         // the 0
  EXPECT_EQ(s.buckets[Histogram::BucketFor(5)], 2u);   // the 5s
  EXPECT_EQ(s.buckets[Histogram::BucketFor(1000)], 1u);
  EXPECT_EQ(s.PopulatedBuckets(), 3u);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram h;
  const auto s = h.GetSnapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(HistogramTest, PercentilesOnUniformData) {
  // 1..1000 uniformly: every percentile estimate must stay within the
  // resolution of a power-of-two bucket (a factor of two of the exact
  // rank), and the defining quantile ordering must hold.
  Histogram h;
  for (uint64_t v = 1; v <= 1000; v++) h.Record(v);
  const auto s = h.GetSnapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_GE(s.Percentile(0.5), 250.0);
  EXPECT_LE(s.Percentile(0.5), 1000.0);
  EXPECT_LE(s.Percentile(0.5), s.Percentile(0.95));
  EXPECT_LE(s.Percentile(0.95), s.Percentile(0.99));
  EXPECT_LE(s.Percentile(1.0), 1000.0);  // clamped to observed max
  EXPECT_GE(s.Percentile(0.001), 1.0);   // clamped to observed min
  // Snapshot pre-computes the common three.
  EXPECT_DOUBLE_EQ(s.p50, s.Percentile(0.5));
  EXPECT_DOUBLE_EQ(s.p95, s.Percentile(0.95));
  EXPECT_DOUBLE_EQ(s.p99, s.Percentile(0.99));
}

TEST(HistogramTest, SingleValuePercentiles) {
  Histogram h;
  for (int i = 0; i < 100; i++) h.Record(42);
  const auto s = h.GetSnapshot();
  // With min == max == 42 the clamp pins every percentile to 42.
  EXPECT_DOUBLE_EQ(s.p50, 42.0);
  EXPECT_DOUBLE_EQ(s.p99, 42.0);
}

// ---------------------------------------------------------------------
// Concurrency (meaningful under TSan; exact counts always checked)
// ---------------------------------------------------------------------

TEST(MetricsConcurrencyTest, CountersAndHistogramsAreExactUnderThreads) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&reg, t] {
      Counter* c = reg.GetCounter("test.ops");
      Histogram* h = reg.GetHistogram("test.lat_ns");
      for (int i = 0; i < kPerThread; i++) {
        c->Add(1);
        h->Record(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.GetCounter("test.ops")->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const auto s = reg.GetHistogram("test.lat_ns")->GetSnapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, static_cast<uint64_t>(kThreads) * kPerThread - 1);
}

TEST(MetricsRegistryTest, SameNameSameObjectDumpsContainEverything) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x.count");
  Counter* b = reg.GetCounter("x.count");
  EXPECT_EQ(a, b);
  a->Add(3);
  reg.GetGauge("x.rate")->Set(0.5);
  reg.GetHistogram("x.lat_ns")->Record(7);

  std::string text;
  reg.DumpText(&text);
  EXPECT_NE(text.find("x.count"), std::string::npos);
  EXPECT_NE(text.find("x.rate"), std::string::npos);
  EXPECT_NE(text.find("x.lat_ns"), std::string::npos);

  std::string json;
  reg.DumpJson(&json);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"x.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"x.lat_ns\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

TEST(TracerTest, RingWrapsKeepingNewestEvents) {
  Tracer& tr = Tracer::Global();
  tr.Clear();
  // Overfill this thread's ring: the first kRingCapacity/2 "early" events
  // must be overwritten by the following "late" ones.
  for (size_t i = 0; i < Tracer::kRingCapacity / 2; i++) {
    tr.RecordComplete("early", /*ts_us=*/i, /*dur_us=*/1);
  }
  for (size_t i = 0; i < Tracer::kRingCapacity; i++) {
    tr.RecordComplete("late", /*ts_us=*/Tracer::kRingCapacity + i,
                      /*dur_us=*/1);
  }
  const auto events = tr.Snapshot();
  ASSERT_EQ(events.size(), Tracer::kRingCapacity);
  for (const auto& e : events) {
    EXPECT_STREQ(e.name, "late");
  }
  tr.Clear();
  EXPECT_EQ(tr.EventCount(), 0u);
}

TEST(TracerTest, ExportIsChromeTraceJson) {
  Tracer& tr = Tracer::Global();
  tr.Clear();
  tr.RecordComplete("unit.scope", 100, 25);
  tr.RecordInstant("unit.mark");
  const std::string json = tr.ExportJsonString();
  // An array of {"name", "cat", "ph", "ts", "dur", "pid", "tid"} objects.
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"unit.scope\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":25"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unit.mark\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);

  const std::string path = "/tmp/gistcr_obs_test_trace.json";
  ASSERT_TRUE(tr.ExportJson(path).ok());
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, json);
  tr.Clear();
}

TEST(TracerTest, EventsFromManyThreadsAllSurface) {
  Tracer& tr = Tracer::Global();
  tr.Clear();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;  // well under ring capacity
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&tr] {
      for (int i = 0; i < kPerThread; i++) {
        tr.RecordComplete("mt.event", static_cast<uint64_t>(i), 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tr.EventCount(), static_cast<size_t>(kThreads) * kPerThread);
  tr.Clear();
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer& tr = Tracer::Global();
  tr.Clear();
  tr.SetEnabled(false);
  tr.RecordComplete("off", 1, 1);
  tr.RecordInstant("off");
  EXPECT_EQ(tr.EventCount(), 0u);
  tr.SetEnabled(true);
}

TEST(TracerTest, DisabledExportIsEmptyButValidJson) {
  // Regression (ISSUE 6 satellite): tracing compiled in but runtime-
  // disabled must export an empty-but-valid JSON array — not stale
  // pre-disable events, not invalid output.
  Tracer& tr = Tracer::Global();
  tr.Clear();
  tr.RecordComplete("stale", 1, 1);
  tr.SetEnabled(false);
  const std::string json = tr.ExportJsonString();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.find("stale"), std::string::npos);
  EXPECT_NE(json.find(']'), std::string::npos);
  tr.SetEnabled(true);
  tr.Clear();
}

TEST(TracerTest, ScopeArgumentsSurviveExport) {
  Tracer& tr = Tracer::Global();
  tr.Clear();
  tr.RecordComplete("argful", 10, 5, "rid", 4242);
  const auto events = tr.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_NE(events[0].arg_name, nullptr);
  EXPECT_STREQ(events[0].arg_name, "rid");
  EXPECT_EQ(events[0].arg, 4242u);
  const std::string json = tr.ExportJsonString();
  EXPECT_NE(json.find("\"args\":{\"rid\":4242}"), std::string::npos);
  tr.Clear();
}

// ---------------------------------------------------------------------
// OpContext / stage attribution
// ---------------------------------------------------------------------

TEST(OpContextTest, ScopeInstallsAndRestores) {
  EXPECT_EQ(CurrentOp(), nullptr);
  AddStage(Stage::kLock, 100);  // no-op outside a span
  BumpRestarts();
  OpContext ctx;
  {
    OpScope scope(&ctx);
    EXPECT_EQ(CurrentOp(), &ctx);
    AddStage(Stage::kLock, 100);
    AddStage(Stage::kLock, 50);
    AddStage(Stage::kFsync, 7);
    BumpRestarts();
  }
  EXPECT_EQ(CurrentOp(), nullptr);
  EXPECT_EQ(ctx.Get(Stage::kLock), 150u);
  EXPECT_EQ(ctx.Get(Stage::kFsync), 7u);
  EXPECT_EQ(ctx.restarts, 1u);
}

TEST(OpContextTest, StageNamesAreDistinct) {
  for (size_t i = 0; i < kNumStages; i++) {
    for (size_t j = i + 1; j < kNumStages; j++) {
      EXPECT_STRNE(StageName(static_cast<Stage>(i)),
                   StageName(static_cast<Stage>(j)));
    }
  }
}

TEST(OpContextTest, TreeScopeExcludesInnerWaits) {
  OpContext ctx;
  OpScope scope(&ctx);
  {
    TreeScope tree;
    // A lock wait inside the traversal must not double-count as tree time.
    AddStage(Stage::kLock, 60'000'000);
  }
  EXPECT_EQ(ctx.Get(Stage::kLock), 60'000'000u);
  // Tree time is the (tiny) real elapsed time, not elapsed + the wait.
  EXPECT_LT(ctx.Get(Stage::kTree), 60'000'000u);
}

TEST(OpContextTest, NestedTreeScopesRecordOnce) {
  OpContext ctx;
  OpScope scope(&ctx);
  {
    TreeScope outer;
    { TreeScope inner; }
    EXPECT_EQ(ctx.Get(Stage::kTree), 0u) << "inner scope must not record";
  }
  EXPECT_EQ(ctx.tree_depth, 0u);
}

// ---------------------------------------------------------------------
// SlowOpLog
// ---------------------------------------------------------------------

TEST(SlowOpLogTest, ThresholdGatesCapture) {
  SlowOpLog log;
  log.Configure(/*capacity=*/4, /*threshold_ns=*/1000);
  OpContext ctx;
  ctx.request_id = 7;
  ctx.op_name = "insert";
  log.MaybeRecord(ctx, /*total_ns=*/999, "ok");
  EXPECT_EQ(log.size(), 0u);
  log.MaybeRecord(ctx, /*total_ns=*/1001, "ok");
  EXPECT_EQ(log.size(), 1u);
  log.SetThresholdNs(0);  // disables capture entirely
  log.MaybeRecord(ctx, /*total_ns=*/5'000'000, "ok");
  EXPECT_EQ(log.size(), 1u);
}

TEST(SlowOpLogTest, RingWrapsOldestFirst) {
  SlowOpLog log;
  log.Configure(/*capacity=*/3, /*threshold_ns=*/1);
  OpContext ctx;
  for (uint64_t i = 1; i <= 5; i++) {
    ctx.request_id = i;
    log.MaybeRecord(ctx, /*total_ns=*/100 + i, "ok");
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
  const auto records = log.Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].request_id, 3u);  // oldest surviving
  EXPECT_EQ(records[2].request_id, 5u);  // newest
}

TEST(SlowOpLogTest, DumpJsonEscapesHostileStatus) {
  SlowOpLog log;
  log.Configure(/*capacity=*/4, /*threshold_ns=*/1);
  OpContext ctx;
  ctx.request_id = 1;
  ctx.op_name = "search";
  ctx.Add(Stage::kQueue, 10);
  ctx.Add(Stage::kOther, 90);
  log.MaybeRecord(ctx, 100, "bad \"quote\" and \\ backslash\nnewline");
  const std::string json = log.DumpJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"rid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"op\":\"search\""), std::string::npos);
  EXPECT_NE(json.find("\"queue\":10"), std::string::npos);
  // No raw quote/backslash/control character may survive inside status.
  const size_t status_pos = json.find("\"status\":\"");
  ASSERT_NE(status_pos, std::string::npos);
  const size_t open = status_pos + 10;
  const size_t close = json.find('"', open);
  ASSERT_NE(close, std::string::npos);
  const std::string status = json.substr(open, close - open);
  EXPECT_EQ(status.find('\\'), std::string::npos);
  EXPECT_EQ(status.find('\n'), std::string::npos);
}

// ---------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------

TEST(FlightRecorderTest, DumpWritesArtifactOnceWhileArmed) {
  const std::string path = "/tmp/gistcr_obs_test.flight";
  std::remove(path.c_str());
  MetricsRegistry reg;
  reg.GetCounter("fr.test")->Add(3);
  SlowOpLog slow;
  FlightRecorder& fr = FlightRecorder::Global();

  // Disarmed: nothing happens.
  fr.Disarm();
  EXPECT_TRUE(fr.Dump("early").IsNotFound());

  fr.Arm(path, &reg, &slow);
  ASSERT_TRUE(fr.armed());
  ASSERT_TRUE(fr.Dump("unit-test").ok());
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  EXPECT_EQ(contents.front(), '{');
  EXPECT_NE(contents.find("\"reason\":\"unit-test\""), std::string::npos);
  EXPECT_NE(contents.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(contents.find("fr.test"), std::string::npos);
  EXPECT_NE(contents.find("\"slow_ops\":"), std::string::npos);
  EXPECT_NE(contents.find("\"trace\":"), std::string::npos);

  // Second dump in the same arming is a no-op (first crash wins).
  std::remove(path.c_str());
  EXPECT_TRUE(fr.Dump("second").ok());
  f = std::fopen(path.c_str(), "r");
  EXPECT_EQ(f, nullptr) << "second Dump must not rewrite the artifact";
  if (f != nullptr) std::fclose(f);

  // Re-arming resets the one-shot.
  fr.Arm(path, &reg, &slow);
  EXPECT_TRUE(fr.Dump("rearmed").ok());
  f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr);
  if (f != nullptr) std::fclose(f);
  fr.Disarm();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace gistcr
