// telemetry::json: the one reader and writer behind every artifact. Pins the
// DOM accessors, the nesting cap, the escaper and the number formatter, and
// that every exporter emits valid JSON whatever its names hold.
#include "src/telemetry/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/health.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"

namespace dspcam::telemetry {
namespace {

TEST(Json, NumbersKeepTheirTokenForExactReads) {
  const auto r = json::parse(
      R"([18446744073709551615, 18446744073709551616, -1, 2.5, 1e3, 0, "7"])");
  ASSERT_TRUE(r.ok) << r.error;
  const auto& v = r.value.items();
  ASSERT_EQ(v.size(), 7u);
  EXPECT_EQ(v[0].u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(v[1].u64().has_value()) << "overflow must be refused";
  EXPECT_FALSE(v[2].u64().has_value()) << "no sign";
  EXPECT_FALSE(v[3].u64().has_value()) << "no fraction";
  EXPECT_FALSE(v[4].u64().has_value()) << "no exponent";
  EXPECT_EQ(v[5].u64(), 0u);
  EXPECT_FALSE(v[6].u64().has_value()) << "a string is not a number";
  EXPECT_EQ(v[2].number(), -1.0);
  EXPECT_EQ(v[3].number(), 2.5);
  EXPECT_EQ(v[4].number(), 1000.0);
  EXPECT_FALSE(v[6].number().has_value());
}

TEST(Json, ScalarsAndContainersReportTheirKind) {
  const auto r = json::parse(R"({"s": "x", "t": true, "f": false, "n": null,
                                 "a": [1], "o": {"k": 1}})");
  ASSERT_TRUE(r.ok) << r.error;
  const json::Value& doc = r.value;
  EXPECT_EQ(doc.find("s")->str(), "x");
  EXPECT_EQ(doc.find("t")->boolean(), true);
  EXPECT_EQ(doc.find("f")->boolean(), false);
  EXPECT_TRUE(doc.find("n")->is_null());
  EXPECT_FALSE(doc.find("n")->boolean().has_value());
  EXPECT_TRUE(doc.find("a")->is_array());
  EXPECT_TRUE(doc.find("o")->is_object());
  EXPECT_EQ(doc.members().size(), 6u);
  EXPECT_EQ(doc.members()[4].key, "a");
}

TEST(Json, FindSeesTheFirstTopLevelMemberOnly) {
  const auto r = json::parse(R"({"a": {"b": 1}, "a": 2, "c": [{"d": 3}]})");
  ASSERT_TRUE(r.ok);
  ASSERT_NE(r.value.find("a"), nullptr);
  EXPECT_TRUE(r.value.find("a")->is_object()) << "first member wins";
  EXPECT_EQ(r.value.find("b"), nullptr);
  EXPECT_EQ(r.value.find("d"), nullptr);
  EXPECT_EQ(r.value.find("a")->find("b")->u64(), 1u);
  EXPECT_EQ(json::parse("[1]").value.find("a"), nullptr);
}

TEST(Json, StringsAreUnescaped) {
  const auto r = json::parse(R"("q\" b\\ s\/ t\t n\n \u0001 é €")");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.str(), "q\" b\\ s/ t\t n\n \x01 \xc3\xa9 \xe2\x82\xac");
}

TEST(Json, ErrorsCarryTheirOffsetAndReason) {
  const auto r = json::parse(R"({"a": 1,})");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_offset, 8u);
  EXPECT_EQ(r.error, "expected string");
  EXPECT_TRUE(r.value.is_null());
  EXPECT_EQ(json::parse("{\"a\": \"\x01\"}").error, "raw control character in string");
  EXPECT_EQ(json::parse("[1] x").error, "trailing characters after document");
  EXPECT_EQ(json::parse("nan").error, "invalid literal");
  EXPECT_EQ(json::parse("inf").error, "expected digit");
}

TEST(Json, NestingIsCappedAtMaxDepth) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(json::parse(nested(json::kMaxDepth)).ok);
  const auto over = json::parse(nested(json::kMaxDepth + 1));
  EXPECT_FALSE(over.ok);
  EXPECT_EQ(over.error_offset, json::kMaxDepth);
  EXPECT_NE(over.error.find("nesting deeper than"), std::string::npos) << over.error;
  // The input that used to overflow the stack: 200 000 levels.
  EXPECT_FALSE(json::parse(nested(200000)).ok);
  EXPECT_FALSE(json::parse(std::string(200000, '[')).ok);
  std::string objects;
  for (int i = 0; i < 200000; ++i) objects += "{\"a\":";
  EXPECT_FALSE(json::parse(objects).ok);
}

TEST(Json, QuoteRoundTripsEveryByte) {
  std::string all;
  for (int c = 1; c < 256; ++c) all += static_cast<char>(c);
  const std::string quoted = json::quote(all);
  const auto r = json::parse(quoted);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.str(), all);
  EXPECT_EQ(json::quote("a\"b\\c\td\x1f"), R"("a\"b\\c\td\u001f")");
}

TEST(Json, NumberIsSixSignificantDigitsOrNull) {
  EXPECT_EQ(json::number(2.5), "2.5");
  EXPECT_EQ(json::number(1234567.0), "1.23457e+06");
  EXPECT_EQ(json::number(std::nan("")), "null");
  EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::number(-std::numeric_limits<double>::infinity()), "null");
}

// A name holding a quote, a backslash and a tab must come out of every
// exporter as valid JSON and read back unchanged.
TEST(Json, WritersEmitValidJsonForAnyName) {
  const std::string odd = "odd\"name\\with\ttab";

  MetricRegistry reg;
  reg.gauge(odd).set(3);
  HealthMonitor mon(reg);
  mon.add_rule({.name = odd,
                .metric = odd,
                .predicate = HealthMonitor::Predicate::kGaugeAbove,
                .trip = 1.0,
                .clear = 0.0});
  mon.evaluate(10);

  SpanTracer tracer;
  const auto span = tracer.begin(odd, 1, 2);
  tracer.arg(span, odd, 7);
  tracer.end(span, 5);
  tracer.set_track_name(1, odd);
  tracer.counter(odd, 3, 4);

  const auto metrics = json::parse(reg.to_json());
  ASSERT_TRUE(metrics.ok) << metrics.error << "\n" << reg.to_json();
  EXPECT_EQ(metrics.value.find("gauges")->find(odd)->number(), 3.0);

  const auto health = json::parse(mon.to_json());
  ASSERT_TRUE(health.ok) << health.error << "\n" << mon.to_json();
  const json::Value& rule = health.value.find("rules")->items().at(0);
  EXPECT_EQ(rule.find("name")->str(), odd);
  EXPECT_EQ(rule.find("metric")->str(), odd);

  const auto trace = json::parse(tracer.chrome_json());
  ASSERT_TRUE(trace.ok) << trace.error << "\n" << tracer.chrome_json();
  bool saw_arg = false;
  std::size_t named = 0;
  for (const json::Value& ev : trace.value.find("traceEvents")->items()) {
    if (ev.find("name")->str() == odd) ++named;
    if (ev.find("ph")->str() == "X") saw_arg = ev.find("args")->find(odd) != nullptr;
    if (ev.find("ph")->str() == "M") {
      EXPECT_EQ(ev.find("args")->find("name")->str(), odd);
    }
  }
  EXPECT_TRUE(saw_arg) << "span arg key did not round-trip";
  EXPECT_EQ(named, 2u) << "span and counter names";

  FlightRecorder rec;
  rec.record(9, FlightRecorder::EventKind::kCustom, Severity::kInfo, odd, {{odd, 1}});
  const std::string dump = rec.dump_json(10, odd, &reg, &tracer, &mon);
  const auto box = json::parse(dump);
  ASSERT_TRUE(box.ok) << box.error << "\n" << dump;
  EXPECT_EQ(box.value.find("reason")->str(), odd);
  const json::Value& ev = box.value.find("events")->items().at(0);
  EXPECT_EQ(ev.find("what")->str(), odd);
  EXPECT_NE(ev.find("args")->find(odd), nullptr);
  EXPECT_EQ(box.value.find("health")->find("rules")->items().at(0).find("name")->str(),
            odd);
  EXPECT_EQ(box.value.find("spans")->items().at(0).find("name")->str(), odd);
}

}  // namespace
}  // namespace dspcam::telemetry
