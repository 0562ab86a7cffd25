// trace_lint_lib unit tests: counter-event shape checks, monotonic counter
// tracks, negative-duration spans, and black-box structure validation.
#include "tools/trace_lint_lib.h"

#include <gtest/gtest.h>

#include <string>

namespace dspcam::tools::tracelint {
namespace {

std::string trace(const std::string& events) {
  return "{\"traceEvents\": [" + events + "]}";
}

const char kSpan[] =
    R"({"name": "op", "ph": "X", "pid": 1, "tid": 3, "ts": 10, "dur": 5})";

TEST(TraceLint, AcceptsSpansAndCounters) {
  const std::string text = trace(
      std::string(kSpan) + ", " +
      R"({"name": "q", "ph": "C", "pid": 1, "tid": 0, "ts": 1, "args": {"value": 3}}, )" +
      R"({"name": "q", "ph": "C", "pid": 1, "tid": 0, "ts": 2, "args": {"value": 4}})");
  const auto r = lint_trace(text);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.spans, 1u);
  EXPECT_EQ(r.counters, 2u);
}

TEST(TraceLint, RejectsNegativeDuration) {
  const std::string text = trace(
      R"({"name": "bad", "ph": "X", "pid": 1, "tid": 0, "ts": 10, "dur": -4})");
  const auto r = lint_trace(text);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("end precedes start"), std::string::npos)
      << r.error;
}

TEST(TraceLint, RejectsCounterWithoutArgsValue) {
  const std::string text = trace(
      std::string(kSpan) + ", " +
      R"({"name": "q", "ph": "C", "pid": 1, "tid": 0, "ts": 1, "args": {}})");
  const auto r = lint_trace(text);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("value"), std::string::npos) << r.error;
}

TEST(TraceLint, RejectsCounterTrackGoingBackwards) {
  const std::string text = trace(
      std::string(kSpan) + ", " +
      R"({"name": "q", "ph": "C", "pid": 1, "tid": 0, "ts": 9, "args": {"value": 1}}, )" +
      R"({"name": "q", "ph": "C", "pid": 1, "tid": 0, "ts": 4, "args": {"value": 2}})");
  const auto r = lint_trace(text);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("backwards"), std::string::npos) << r.error;
}

TEST(TraceLint, SeparateTracksHaveIndependentClocks) {
  // Same name on different tids, and different names on one tid, are
  // different tracks: their timestamps may interleave freely.
  const std::string text = trace(
      std::string(kSpan) + ", " +
      R"({"name": "q", "ph": "C", "pid": 1, "tid": 0, "ts": 9, "args": {"value": 1}}, )" +
      R"({"name": "q", "ph": "C", "pid": 1, "tid": 1, "ts": 4, "args": {"value": 2}}, )" +
      R"({"name": "r", "ph": "C", "pid": 1, "tid": 0, "ts": 2, "args": {"value": 3}})");
  const auto r = lint_trace(text);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(TraceLint, ArgsKeysCannotShadowEventFields) {
  // An args payload carrying "ts"/"dur"-looking keys must not confuse the
  // event-level field extraction (depth-aware scan, not substring search).
  const std::string text = trace(
      R"({"name": "op", "ph": "X", "pid": 1, "tid": 0, "ts": 10, "dur": 5, )"
      R"("args": {"ts": -100, "dur": -100, "value": "x"}})");
  const auto r = lint_trace(text);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(TraceLint, RequiresAtLeastOneCompleteSpan) {
  const auto r = lint_trace(trace(
      R"({"name": "q", "ph": "C", "pid": 1, "tid": 0, "ts": 1, "args": {"value": 3}})"));
  EXPECT_FALSE(r.ok);
}

TEST(TraceLint, RejectsMalformedJson) {
  EXPECT_FALSE(lint_trace("{\"traceEvents\": [").ok);
  EXPECT_FALSE(lint_trace("{}").ok);
}

TEST(TraceLint, MetricsRequiresAllThreeSections) {
  EXPECT_TRUE(
      lint_metrics(R"({"counters": {}, "gauges": {}, "histograms": {}})").ok);
  EXPECT_FALSE(lint_metrics(R"({"counters": {}, "gauges": {}})").ok);
}

TEST(TraceLint, JsonlCountsRowsAndRejectsBadLines) {
  const auto good = lint_jsonl("{\"a\": 1}\n\n{\"b\": 2}\n");
  EXPECT_TRUE(good.ok);
  EXPECT_EQ(good.rows, 2u);
  EXPECT_FALSE(lint_jsonl("{\"a\": 1}\n{broken\n").ok);
  EXPECT_FALSE(lint_jsonl("\n\n").ok);
}

// Each line must hold an object: a well-formed scalar or array is a bad row.
TEST(TraceLint, JsonlRejectsLinesThatAreNotObjects) {
  for (const char* line : {"5", "\"x\"", "[1]"}) {
    const auto r = lint_jsonl(std::string("{\"a\": 1}\n") + line + "\n{\"b\": 2}\n");
    EXPECT_FALSE(r.ok) << line;
    EXPECT_NE(r.error.find("line 2"), std::string::npos) << r.error;
  }
  EXPECT_TRUE(lint_jsonl("{\"a\": [1]}\n{}\n").ok);
}

std::string blackbox(const std::string& events, const std::string& spans,
                     const std::string& health = "null",
                     const std::string& metrics = "null") {
  return std::string("{\"kind\": \"dspcam.blackbox\", \"version\": 1, ") +
         "\"cycle\": 100, \"reason\": \"test\", \"events_recorded\": 2, " +
         "\"events_dropped\": 0, \"events\": [" + events + "], \"health\": " +
         health + ", \"metrics\": " + metrics + ", \"spans\": " + spans + "}";
}

const char kEvent0[] =
    R"({"seq": 0, "cycle": 5, "kind": "quarantine", "severity": "critical", "what": "x", "args": {}})";
const char kEvent1[] =
    R"({"seq": 1, "cycle": 6, "kind": "rebuild", "severity": "info", "what": "y", "args": {}})";

TEST(TraceLint, BlackboxAcceptsWellFormedDump) {
  const auto r = lint_blackbox(
      blackbox(std::string(kEvent0) + ", " + kEvent1,
               R"([{"name": "op", "track": 1, "start": 3, "end": 9}])",
               R"({"evaluations": 1, "tripped": 0, "rules": []})",
               R"({"counters": {}, "gauges": {}, "histograms": {}})"));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.rows, 2u);
}

TEST(TraceLint, BlackboxRejectsWrongKind) {
  std::string doc = blackbox(kEvent0, "null");
  doc.replace(doc.find("dspcam.blackbox"), 15, "somethingelsebo");
  EXPECT_FALSE(lint_blackbox(doc).ok);
}

TEST(TraceLint, BlackboxRejectsNonIncreasingSeq) {
  const auto r =
      lint_blackbox(blackbox(std::string(kEvent0) + ", " + kEvent0, "null"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("strictly increasing"), std::string::npos) << r.error;
}

TEST(TraceLint, BlackboxRejectsSpanEndingBeforeStart) {
  const auto r = lint_blackbox(blackbox(
      kEvent0, R"([{"name": "op", "track": 1, "start": 9, "end": 3}])"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("ends before it starts"), std::string::npos)
      << r.error;
}

TEST(TraceLint, BlackboxRejectsMissingSections) {
  // Dropping any one required key fails the lint.
  const std::string doc = blackbox(kEvent0, "null");
  for (const char* key :
       {"\"kind\"", "\"version\"", "\"cycle\"", "\"reason\"", "\"events\"",
        "\"events_recorded\"", "\"events_dropped\"", "\"health\"",
        "\"metrics\"", "\"spans\""}) {
    std::string broken = doc;
    const auto pos = broken.find(key);
    ASSERT_NE(pos, std::string::npos) << key;
    // Rename the key (keep the document valid JSON).
    broken[pos + 1] = 'z';
    EXPECT_FALSE(lint_blackbox(broken).ok) << key;
  }
}

TEST(TraceLint, BlackboxValidatesEmbeddedMetrics) {
  const auto r = lint_blackbox(
      blackbox(kEvent0, "null", "null", R"({"counters": {}})"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("\"metrics\" section"), std::string::npos) << r.error;
}

}  // namespace
}  // namespace dspcam::tools::tracelint
