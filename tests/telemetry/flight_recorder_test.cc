// FlightRecorder unit tests: ring behaviour, accounting, and black-box
// dump structure.
#include "src/telemetry/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/error.h"
#include "src/telemetry/health.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"

namespace dspcam::telemetry {
namespace {

using Kind = FlightRecorder::EventKind;

TEST(FlightRecorder, RecordsInOrderWithMonotonicSeq) {
  FlightRecorder rec;
  rec.record(10, Kind::kQuarantine, Severity::kCritical, "shard down",
             {{"shard", 2}});
  rec.record(20, Kind::kRebuild, Severity::kInfo, "shard back");
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].cycle, 10u);
  EXPECT_EQ(events[0].kind, Kind::kQuarantine);
  EXPECT_EQ(events[0].what, "shard down");
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "shard");
  EXPECT_EQ(events[0].args[0].second, 2u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(rec.recorded(), 2u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(FlightRecorder, RingOverwritesOldestAndKeepsSeq) {
  FlightRecorder::Config cfg;
  cfg.capacity = 4;
  FlightRecorder rec(cfg);
  for (int i = 0; i < 10; ++i) {
    std::string what = "e";
    what += std::to_string(i);
    rec.record(static_cast<std::uint64_t>(i), Kind::kCustom, Severity::kInfo, std::move(what));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and seq survives the overwrites.
  EXPECT_EQ(events.front().seq, 6u);
  EXPECT_EQ(events.back().seq, 9u);
  EXPECT_EQ(events.front().what, "e6");
}

TEST(FlightRecorder, ZeroCapacityIsAConfigError) {
  FlightRecorder::Config cfg;
  cfg.capacity = 0;
  EXPECT_THROW(FlightRecorder{cfg}, ConfigError);
}

TEST(FlightRecorder, ClearResetsEverything) {
  FlightRecorder rec;
  rec.record(1, Kind::kCustom, Severity::kInfo, "x");
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_TRUE(rec.events().empty());
}

TEST(FlightRecorder, KindAndSeverityNamesAreStable) {
  EXPECT_STREQ(FlightRecorder::to_string(Kind::kWatchdogTrip), "watchdog_trip");
  EXPECT_STREQ(FlightRecorder::to_string(Kind::kQuarantine), "quarantine");
  EXPECT_STREQ(FlightRecorder::to_string(Kind::kScrubSilent), "scrub_silent");
  EXPECT_STREQ(to_string(Severity::kInfo), "info");
  EXPECT_STREQ(to_string(Severity::kWarn), "warn");
  EXPECT_STREQ(to_string(Severity::kCritical), "critical");
}

TEST(FlightRecorder, DumpWithoutSectionsEmitsNulls) {
  FlightRecorder rec;
  rec.record(5, Kind::kWatchdogTrip, Severity::kCritical, "wedged");
  const std::string json = rec.dump_json(123, "test dump");
  EXPECT_TRUE(json::parse(json).ok) << json;
  EXPECT_TRUE(json::parse(json).value.find("kind"));
  EXPECT_TRUE(json::parse(json).value.find("events"));
  EXPECT_NE(json.find("\"kind\": \"dspcam.blackbox\""), std::string::npos);
  EXPECT_NE(json.find("\"cycle\": 123"), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"test dump\""), std::string::npos);
  EXPECT_NE(json.find("\"health\": null"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": null"), std::string::npos);
  EXPECT_NE(json.find("\"spans\": null"), std::string::npos);
  EXPECT_NE(json.find("\"watchdog_trip\""), std::string::npos);
}

TEST(FlightRecorder, DumpCarriesMetricsSpansAndHealth) {
  MetricRegistry reg;
  reg.counter("engine.issued").add(42);
  HealthMonitor mon(reg);
  mon.add_default_rules();
  reg.gauge("engine.quarantined_shards").set(1);
  mon.evaluate(100);

  SpanTracer tracer;
  const auto s = tracer.begin("op", 1, 10);
  tracer.end(s, 20);

  FlightRecorder rec;
  rec.record(100, Kind::kQuarantine, Severity::kCritical, "down",
             {{"shard", 1}});
  const std::string json = rec.dump_json(100, "drill", &reg, &tracer, &mon);
  EXPECT_TRUE(json::parse(json).ok) << json;
  EXPECT_NE(json.find("\"engine.issued\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"shard_quarantine\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"op\""), std::string::npos);
  EXPECT_EQ(json.find("\"metrics\": null"), std::string::npos);
  EXPECT_EQ(json.find("\"health\": null"), std::string::npos);
  EXPECT_EQ(json.find("\"spans\": null"), std::string::npos);
}

TEST(FlightRecorder, WriteDumpCreatesTheFile) {
  FlightRecorder rec;
  rec.record(1, Kind::kCustom, Severity::kInfo, "x");
  const std::string path = ::testing::TempDir() + "fr_dump_test.json";
  rec.write_dump(path, 7, "file test");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(json::parse(ss.str()).ok);
  std::remove(path.c_str());
}

TEST(FlightRecorder, DumpEscapesStrings) {
  FlightRecorder rec;
  rec.record(1, Kind::kCustom, Severity::kInfo, "quote \" backslash \\ tab \t");
  const std::string json = rec.dump_json(1, "line\nbreak");
  EXPECT_TRUE(json::parse(json).ok) << json;
}

}  // namespace
}  // namespace dspcam::telemetry
