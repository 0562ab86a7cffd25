// MetricRegistry, Counter/Gauge/Histogram, and SnapshotWriter unit tests.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics.h"

namespace dspcam::telemetry {
namespace {

// --- Counter. ---

TEST(Counter, IncrementAndAdd) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(10);
  EXPECT_EQ(c.value(), 11u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, UpdateToIsMonotonicAndIdempotent) {
  Counter c;
  c.update_to(100);
  EXPECT_EQ(c.value(), 100u);
  c.update_to(100);  // re-publication of the same total
  EXPECT_EQ(c.value(), 100u);
  c.update_to(50);  // stale total never regresses the counter
  EXPECT_EQ(c.value(), 100u);
  c.update_to(150);
  EXPECT_EQ(c.value(), 150u);
}

// --- Histogram bucket geometry. ---

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 = {0}; bucket b >= 1 covers [2^(b-1), 2^b - 1].
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(7), 3u);
  EXPECT_EQ(Histogram::bucket_index(8), 4u);
  EXPECT_EQ(Histogram::bucket_index(1023), 10u);
  EXPECT_EQ(Histogram::bucket_index(1024), 11u);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 64u);

  for (unsigned b = 1; b < 64; ++b) {
    EXPECT_EQ(Histogram::bucket_lo(b), std::uint64_t{1} << (b - 1)) << b;
    EXPECT_EQ(Histogram::bucket_hi(b), (std::uint64_t{1} << b) - 1) << b;
    // Every boundary value lands in its own bucket.
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lo(b)), b);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_hi(b)), b);
  }
  EXPECT_EQ(Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(Histogram::bucket_hi(0), 0u);
}

TEST(Histogram, RecordAccumulates) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  h.record(4);
  h.record(5);
  h.record(6);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 4u);
  EXPECT_EQ(h.max(), 6u);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_EQ(h.sum(), 15u);
  EXPECT_EQ(h.bucket_count(3), 3u);  // 4..6 all in [4, 7]
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(3), 0u);
}

TEST(Histogram, UpdateToAdoptsNewerSourceAndIgnoresStale) {
  Histogram source;
  source.record(4);
  source.record(8);

  Histogram published;
  published.update_to(source);
  EXPECT_EQ(published.count(), 2u);
  EXPECT_EQ(published.min(), 4u);
  EXPECT_EQ(published.max(), 8u);
  EXPECT_EQ(published.sum(), 12u);
  EXPECT_EQ(published.bucket_count(3), 1u);
  EXPECT_EQ(published.bucket_count(4), 1u);

  // Re-publication of the same snapshot is idempotent.
  published.update_to(source);
  EXPECT_EQ(published.count(), 2u);
  EXPECT_EQ(published.sum(), 12u);

  // A stale snapshot (fewer samples) never rolls published state back.
  Histogram stale;
  stale.record(1);
  published.update_to(stale);
  EXPECT_EQ(published.count(), 2u);
  EXPECT_EQ(published.min(), 4u);

  // A registry reset between publications is healed by the next one.
  published.reset();
  EXPECT_EQ(published.count(), 0u);
  source.record(16);
  published.update_to(source);
  EXPECT_EQ(published.count(), 3u);
  EXPECT_EQ(published.max(), 16u);
  EXPECT_EQ(published.sum(), 28u);
}

TEST(Histogram, QuantilesExactForConstantStream) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(7);
  EXPECT_DOUBLE_EQ(h.p50(), 7.0);
  EXPECT_DOUBLE_EQ(h.p95(), 7.0);
  EXPECT_DOUBLE_EQ(h.p99(), 7.0);
}

TEST(Histogram, QuantilesClampedToObservedRange) {
  Histogram h;
  h.record(10);
  h.record(1000);
  EXPECT_GE(h.quantile(0.0), 10.0);
  EXPECT_LE(h.quantile(1.0), 1000.0);
  EXPECT_LE(h.p50(), 1000.0);
  EXPECT_GE(h.p50(), 10.0);
}

TEST(Histogram, QuantileOrderingOnSpreadStream) {
  Histogram h;
  // 90 fast ops at 8 cycles, 10 slow at 1024: the p99 tail must land in
  // the slow bucket while p50 stays in the fast one.
  for (int i = 0; i < 90; ++i) h.record(8);
  for (int i = 0; i < 10; ++i) h.record(1024);
  EXPECT_LT(h.p50(), 16.0);
  EXPECT_GE(h.p99(), 1024.0);
  EXPECT_LE(h.p50(), h.p95());
  EXPECT_LE(h.p95(), h.p99());
}

// --- MetricRegistry. ---

TEST(MetricRegistry, HandlesAreStableAndCumulative) {
  MetricRegistry reg;
  Counter& c = reg.counter("driver.submitted");
  c.inc();
  // Second lookup returns the same object.
  EXPECT_EQ(&reg.counter("driver.submitted"), &c);
  EXPECT_EQ(reg.counter("driver.submitted").value(), 1u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistry, FindDoesNotCreate) {
  MetricRegistry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
  EXPECT_EQ(reg.size(), 0u);
  reg.counter("a");
  EXPECT_NE(reg.find_counter("a"), nullptr);
  EXPECT_EQ(reg.find_gauge("a"), nullptr);  // wrong kind
}

TEST(MetricRegistry, KindCollisionThrows) {
  MetricRegistry reg;
  reg.counter("x.y");
  EXPECT_THROW(reg.gauge("x.y"), ConfigError);
  EXPECT_THROW(reg.histogram("x.y"), ConfigError);
  reg.gauge("g");
  EXPECT_THROW(reg.counter("g"), ConfigError);
}

TEST(MetricRegistry, SubtreeAggregation) {
  MetricRegistry reg;
  reg.counter("engine.shard0.issued").add(3);
  reg.counter("engine.shard1.issued").add(4);
  reg.counter("engine.issued").add(7);
  reg.counter("engines.other").add(100);  // prefix, not subtree: excluded
  EXPECT_EQ(reg.sum_counters("engine"), 14u);
  EXPECT_EQ(reg.sum_counters("engine.shard0"), 3u);
  EXPECT_EQ(reg.sum_counters("engine.issued"), 7u);  // exact match counts
  EXPECT_EQ(reg.sum_counters("nothing"), 0u);
}

TEST(MetricRegistry, ToJsonIsValidAndDeterministic) {
  MetricRegistry reg;
  reg.counter("b.count").add(2);
  reg.counter("a.count").add(1);
  reg.gauge("depth").set(-3);
  reg.histogram("lat").record(5);
  const std::string json = reg.to_json();
  const auto r = json::parse(json);
  EXPECT_TRUE(r.ok) << r.error << " at " << r.error_offset;
  EXPECT_TRUE(json::parse(json).value.find("counters"));
  EXPECT_TRUE(json::parse(json).value.find("gauges"));
  EXPECT_TRUE(json::parse(json).value.find("histograms"));
  // Keys are map-ordered, so serialisation is byte-stable.
  EXPECT_EQ(json, reg.to_json());
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));
  // Negative gauge survives the round trip textually.
  EXPECT_NE(json.find("-3"), std::string::npos);
}

TEST(MetricRegistry, ResetZeroesButKeepsHandles) {
  MetricRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  c.add(5);
  g.set(5);
  h.record(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(reg.size(), 3u);  // still registered
}

// --- SnapshotWriter. ---

TEST(SnapshotWriter, WritesOnCadenceAndValidates) {
  MetricRegistry reg;
  reg.counter("ticks");
  const std::string path = ::testing::TempDir() + "snap_test.jsonl";
  SnapshotWriter writer(reg, path, /*every_cycles=*/100);
  std::uint64_t wrote = 0;
  for (std::uint64_t cycle = 0; cycle < 500; ++cycle) {
    reg.counter("ticks").inc();
    if (writer.maybe_write(cycle)) ++wrote;
  }
  EXPECT_EQ(wrote, 5u);  // cycles 0, 100, 200, 300, 400
  EXPECT_EQ(writer.snapshots_written(), 5u);

  std::ifstream in(path);
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    const auto r = json::parse(line);
    EXPECT_TRUE(r.ok) << line;
    EXPECT_TRUE(json::parse(line).value.find("cycle"));
    EXPECT_TRUE(json::parse(line).value.find("metrics"));
    ++lines;
  }
  EXPECT_EQ(lines, 5u);
  std::remove(path.c_str());
}

// Crash safety: every record must be readable from a second stream while the
// writer is still alive - flush-per-record, not buffer-until-destruction. A
// writer that only flushes on close would lose the tail of a run that aborts.
TEST(SnapshotWriter, RecordsVisibleBeforeWriterCloses) {
  MetricRegistry reg;
  reg.counter("ticks").add(7);
  const std::string path = ::testing::TempDir() + "snap_flush_test.jsonl";
  SnapshotWriter writer(reg, path, /*every_cycles=*/1);
  for (std::uint64_t cycle = 0; cycle < 3; ++cycle) writer.maybe_write(cycle);

  std::ifstream in(path);  // writer still open and holding its own stream
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(json::parse(line).ok) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 3u) << "records must hit the OS before the writer closes";
  std::remove(path.c_str());
}

TEST(SnapshotWriter, RejectsZeroCadenceAndBadPath) {
  MetricRegistry reg;
  EXPECT_THROW(SnapshotWriter(reg, ::testing::TempDir() + "x.jsonl", 0),
               ConfigError);
  EXPECT_THROW(SnapshotWriter(reg, "/nonexistent-dir/x.jsonl", 10), ConfigError);
}

TEST(MetricRegistry, SubtreeSumRespectsDotBoundaries) {
  MetricRegistry reg;
  reg.counter("engine").add(1);
  reg.counter("engine.shard0.issued").add(2);
  reg.counter("engine.shard1.issued").add(4);
  reg.counter("engine.shard10.issued").add(8);   // not under "engine.shard1"
  reg.counter("engines.shard0.issued").add(16);  // sibling subtree
  EXPECT_EQ(reg.sum_counters("engine"), 15u);
  EXPECT_EQ(reg.sum_counters("engine.shard1"), 4u);
  EXPECT_EQ(reg.sum_counters("engine.shard10"), 8u);
  EXPECT_EQ(reg.sum_counters("engines"), 16u);
  EXPECT_EQ(reg.sum_counters("eng"), 0u);
}

TEST(MetricRegistry, SubtreeSumAcceptsTrailingDot) {
  // Regression: "engine." (the form the header documents) used to return 0
  // because the dot-boundary check compared against the dotted prefix.
  MetricRegistry reg;
  reg.counter("engine.a").add(3);
  reg.counter("engine.b.c").add(5);
  EXPECT_EQ(reg.sum_counters("engine."), 8u);
  EXPECT_EQ(reg.sum_counters("engine"), reg.sum_counters("engine."));
  EXPECT_EQ(reg.sum_counters("engine.b."), 5u);
}

TEST(MetricRegistry, SuffixSumMatchesLeafOnDotBoundary) {
  MetricRegistry reg;
  reg.counter("engine.shard0.parity_flagged").add(1);
  reg.counter("engine.shard1.parity_flagged").add(2);
  reg.counter("engine.shard1.no_parity_flagged").add(4);  // not a dot boundary
  reg.counter("engine.parity_flagged").add(8);
  reg.counter("other.parity_flagged").add(16);  // outside the subtree
  EXPECT_EQ(reg.sum_counters("engine", "parity_flagged"), 11u);
  // Multi-component suffixes bind on the same boundary rule.
  EXPECT_EQ(reg.sum_counters("engine", "shard1.parity_flagged"), 2u);
  // Empty suffix degenerates to the one-argument form.
  EXPECT_EQ(reg.sum_counters("engine", ""), reg.sum_counters("engine"));
  // A suffix longer than any name matches nothing.
  EXPECT_EQ(reg.sum_counters("engine", "x.engine.shard0.parity_flagged"), 0u);
}

TEST(Histogram, ExactBucketBoundaryValues) {
  // Values sitting exactly on bucket edges must land in the bucket whose
  // range contains them: bucket b >= 1 covers [2^(b-1), 2^b - 1].
  Histogram h;
  for (const std::uint64_t v : {1ull, 2ull, 3ull, 4ull, 7ull, 8ull}) h.record(v);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(1)), 1u);   // [1,1]
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(2)), 2u);   // [2,3]
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(4)), 2u);   // [4,7]
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(8)), 1u);   // [8,15]
  for (unsigned b = 1; b < 64; ++b) {
    EXPECT_EQ(Histogram::bucket_lo(b), std::uint64_t{1} << (b - 1));
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lo(b)), b);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_hi(b)), b);
  }
  // The top of the u64 range: bucket 64 covers [2^63, 2^64 - 1] and must
  // clamp its hi edge instead of shifting by 64 (which is UB, and used to
  // return garbage here).
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 64u);
  EXPECT_EQ(Histogram::bucket_lo(64), std::uint64_t{1} << 63);
  EXPECT_EQ(Histogram::bucket_hi(64), ~std::uint64_t{0});
  EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_hi(64)), 64u);
}

TEST(Histogram, SingleSampleQuantilesAreThatSample) {
  Histogram h;
  h.record(37);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.p50(), 37.0);
  EXPECT_DOUBLE_EQ(h.p95(), 37.0);
  EXPECT_DOUBLE_EQ(h.p99(), 37.0);
  EXPECT_EQ(h.min(), 37u);
  EXPECT_EQ(h.max(), 37u);
}

TEST(Histogram, ZerosOnlyStream) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
  EXPECT_EQ(h.bucket_count(0), 100u);  // bucket 0 holds exact zeros
}

TEST(Histogram, UpdateToRepublicationIsIdempotent) {
  // The pull-model path republishes the same source histogram every
  // snapshot; the published copy must not drift.
  Histogram source;
  for (int i = 0; i < 50; ++i) source.record(7);
  Histogram published;
  published.update_to(source);
  const std::uint64_t count = published.count();
  const std::uint64_t sum = published.sum();
  for (int rep = 0; rep < 5; ++rep) published.update_to(source);
  EXPECT_EQ(published.count(), count);
  EXPECT_EQ(published.sum(), sum);
  EXPECT_DOUBLE_EQ(published.p99(), source.p99());
}

TEST(Histogram, QuantileClampsToObservedMinMax) {
  // Interpolation inside a wide bucket must never step outside what was
  // actually seen: with samples {1000, 1001} every quantile lies in
  // [1000, 1001] even though their bucket spans [512, 1023].
  Histogram h;
  h.record(1000);
  h.record(1001);
  for (const double q : {0.01, 0.50, 0.95, 0.99, 1.0}) {
    EXPECT_GE(h.quantile(q), 1000.0) << q;
    EXPECT_LE(h.quantile(q), 1001.0) << q;
  }
}

// --- json::parse itself (every artifact reader runs it; pin its judgement). ---

TEST(JsonValidator, AcceptsAndRejects) {
  EXPECT_TRUE(json::parse(R"({"a": [1, 2.5, -3e2], "b": {"c": null}})").ok);
  EXPECT_TRUE(json::parse(R"(["x", true, false])").ok);
  EXPECT_TRUE(json::parse(R"("just a string")").ok);
  EXPECT_FALSE(json::parse("{").ok);
  EXPECT_FALSE(json::parse(R"({"a": })").ok);
  EXPECT_FALSE(json::parse(R"({"a": 1,})").ok);
  EXPECT_FALSE(json::parse(R"({"a": 1} trailing)").ok);
  EXPECT_FALSE(json::parse("").ok);
  EXPECT_FALSE(json::parse(R"({"a": 01})").ok);
}

TEST(JsonValidator, TopLevelKeyProbeIsStructural) {
  const std::string doc = R"({"outer": {"inner": 1}, "traceEvents": []})";
  EXPECT_TRUE(json::parse(doc).value.find("outer"));
  EXPECT_TRUE(json::parse(doc).value.find("traceEvents"));
  EXPECT_FALSE(json::parse(doc).value.find("inner"));
  EXPECT_FALSE(json::parse("[1, 2]").value.find("outer"));
}

}  // namespace
}  // namespace dspcam::telemetry
