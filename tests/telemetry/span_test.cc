// SpanTracer lifecycle, sampling, bounded-ring and export tests.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/telemetry/json.h"
#include "src/telemetry/span.h"

namespace dspcam::telemetry {
namespace {

TEST(SpanTracer, BasicLifecycle) {
  SpanTracer tracer;
  const auto id = tracer.begin("work", /*track=*/3, /*ts=*/10);
  ASSERT_NE(id, SpanTracer::kNone);
  EXPECT_EQ(tracer.open_count(), 1u);
  tracer.arg(id, "ticket", 42);
  tracer.end(id, 25);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.started(), 1u);
  EXPECT_EQ(tracer.finished(), 1u);
  EXPECT_EQ(tracer.orphaned(), 0u);

  const auto spans = tracer.finished_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].track, 3u);
  EXPECT_EQ(spans[0].start, 10u);
  EXPECT_EQ(spans[0].end, 25u);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].first, "ticket");
  EXPECT_EQ(spans[0].args[0].second, 42u);
}

TEST(SpanTracer, UnsampledBeginReturnsNoneAndAllOpsNoOp) {
  SpanTracer tracer;
  const auto id = tracer.begin("skipped", 0, 5, /*record=*/false);
  EXPECT_EQ(id, SpanTracer::kNone);
  // Every downstream call must tolerate kNone silently.
  tracer.arg(id, "k", 1);
  tracer.end(id, 9);
  EXPECT_EQ(tracer.started(), 0u);
  EXPECT_EQ(tracer.finished(), 0u);
  EXPECT_EQ(tracer.open_count(), 0u);
}

TEST(SpanTracer, SamplingIsDeterministicOneInN) {
  SpanTracer::Config cfg;
  cfg.sample_every = 16;
  SpanTracer tracer(cfg);
  unsigned sampled = 0;
  for (std::uint64_t id = 0; id < 160; ++id) {
    if (tracer.sampled(id)) ++sampled;
    EXPECT_EQ(tracer.sampled(id), id % 16 == 0) << id;
  }
  EXPECT_EQ(sampled, 10u);

  SpanTracer::Config all;
  all.sample_every = 1;
  EXPECT_TRUE(SpanTracer(all).sampled(7));
}

TEST(SpanTracer, RingOverwritesOldestAndCountsDropped) {
  SpanTracer::Config cfg;
  cfg.capacity = 4;
  SpanTracer tracer(cfg);
  for (std::uint64_t i = 0; i < 10; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    const auto id = tracer.begin(name, 0, i);
    tracer.end(id, i + 1);
  }
  EXPECT_EQ(tracer.finished(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto spans = tracer.finished_spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first over the survivors: s6..s9.
  EXPECT_EQ(spans.front().name, "s6");
  EXPECT_EQ(spans.back().name, "s9");
}

TEST(SpanTracer, OrphanEvictionBoundsOpenTable) {
  SpanTracer::Config cfg;
  cfg.max_open = 8;
  SpanTracer tracer(cfg);
  std::vector<SpanTracer::SpanId> ids;
  for (std::uint64_t i = 0; i < 20; ++i) ids.push_back(tracer.begin("leak", 0, i));
  EXPECT_EQ(tracer.open_count(), 8u);  // oldest 12 evicted
  EXPECT_EQ(tracer.orphaned(), 20u);   // evicted + still open
  // Ending an evicted id is a silent no-op.
  tracer.end(ids.front(), 99);
  EXPECT_EQ(tracer.finished(), 0u);
  // Ending a live one still works and shrinks the orphan count.
  tracer.end(ids.back(), 99);
  EXPECT_EQ(tracer.finished(), 1u);
  EXPECT_EQ(tracer.orphaned(), 19u);
}

TEST(SpanTracer, ClearResetsSpansButKeepsTrackNames) {
  SpanTracer tracer;
  tracer.set_track_name(0, "driver.tickets");
  const auto id = tracer.begin("a", 0, 1);
  tracer.end(id, 2);
  tracer.clear();
  EXPECT_EQ(tracer.finished(), 0u);
  EXPECT_EQ(tracer.started(), 0u);
  EXPECT_TRUE(tracer.finished_spans().empty());
  // Track metadata survives a clear: the next export is still labelled.
  EXPECT_NE(tracer.chrome_json().find("driver.tickets"), std::string::npos);
}

TEST(SpanTracer, RejectsZeroCapacityConfigs) {
  SpanTracer::Config no_ring;
  no_ring.capacity = 0;
  EXPECT_THROW(SpanTracer{no_ring}, ConfigError);
  SpanTracer::Config no_open;
  no_open.max_open = 0;
  EXPECT_THROW(SpanTracer{no_open}, ConfigError);
}

// --- Chrome trace-event export. ---

TEST(SpanTracer, ChromeJsonGoldenFormat) {
  SpanTracer tracer;
  tracer.set_track_name(0, "driver.tickets");
  const auto id = tracer.begin("ticket.search", 0, 100);
  tracer.arg(id, "ticket", 7);
  tracer.end(id, 150);
  const std::string json = tracer.chrome_json();

  const auto r = json::parse(json);
  ASSERT_TRUE(r.ok) << r.error << " at offset " << r.error_offset;
  EXPECT_TRUE(json::parse(json).value.find("traceEvents"));

  // Complete event: phase X with ts/dur in microseconds (1 cycle = 1 us).
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"ticket.search\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 50"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"ticket\": 7"), std::string::npos);
  // Track-name metadata event.
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("driver.tickets"), std::string::npos);
}

TEST(SpanTracer, OpenSpansAreNotExported) {
  SpanTracer tracer;
  tracer.begin("never.ends", 0, 5);
  const std::string json = tracer.chrome_json();
  EXPECT_TRUE(json::parse(json).ok);
  EXPECT_EQ(json.find("never.ends"), std::string::npos);
}

TEST(SpanTracer, CounterSamplesRecordInOrder) {
  SpanTracer tracer;
  tracer.counter("engine.queue_depth", 10, 3);
  tracer.counter("engine.queue_depth", 20, 5);
  tracer.counter("driver.inflight", 20, 7);
  const auto samples = tracer.counter_samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "engine.queue_depth");
  EXPECT_EQ(samples[0].ts, 10u);
  EXPECT_EQ(samples[0].value, 3);
  EXPECT_EQ(samples[2].name, "driver.inflight");
  EXPECT_EQ(tracer.counters_recorded(), 3u);
  EXPECT_EQ(tracer.counters_dropped(), 0u);
}

TEST(SpanTracer, CounterRingDropsOldestSamples) {
  SpanTracer::Config cfg;
  cfg.counter_capacity = 4;
  SpanTracer tracer(cfg);
  for (int i = 0; i < 10; ++i) {
    tracer.counter("q", static_cast<std::uint64_t>(i), i);
  }
  const auto samples = tracer.counter_samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples.front().ts, 6u);  // oldest surviving
  EXPECT_EQ(samples.back().ts, 9u);
  EXPECT_EQ(tracer.counters_recorded(), 10u);
  EXPECT_EQ(tracer.counters_dropped(), 6u);
}

TEST(SpanTracer, ChromeJsonCarriesCounterEvents) {
  SpanTracer tracer;
  const auto id = tracer.begin("op", 1, 0);
  tracer.end(id, 5);
  tracer.counter("engine.queue_depth", 3, 2);
  tracer.counter("engine.queue_depth", 7, 0);
  const std::string json = tracer.chrome_json();
  EXPECT_TRUE(json::parse(json).ok) << json;
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"value\": 2}"), std::string::npos);
}

TEST(SpanTracer, ClearResetsCounterState) {
  SpanTracer tracer;
  tracer.counter("q", 1, 1);
  tracer.clear();
  EXPECT_TRUE(tracer.counter_samples().empty());
  EXPECT_EQ(tracer.counters_recorded(), 0u);
  EXPECT_EQ(tracer.counters_dropped(), 0u);
}

TEST(SpanTracer, ZeroCounterCapacityIsAConfigError) {
  SpanTracer::Config cfg;
  cfg.counter_capacity = 0;
  EXPECT_THROW(SpanTracer{cfg}, ConfigError);
}

TEST(SpanTracer, WriteChromeJsonRoundTrips) {
  SpanTracer tracer;
  const auto id = tracer.begin("io", 1, 0);
  tracer.end(id, 3);
  const std::string path = ::testing::TempDir() + "span_export.json";
  tracer.write_chrome_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text.find('\0'), std::string::npos);
  EXPECT_TRUE(json::parse(text).ok);
  EXPECT_NE(text.find("\"io\""), std::string::npos);
  std::remove(path.c_str());

  EXPECT_THROW(tracer.write_chrome_json("/nonexistent-dir/out.json"), ConfigError);
}

}  // namespace
}  // namespace dspcam::telemetry
