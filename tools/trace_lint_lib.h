// Validation core for trace_lint (header-only so tests link it directly).
//
// Checks the artifacts the telemetry stack emits - Chrome trace-event JSON
// (spans + counter tracks), MetricRegistry snapshots, JSON-lines files, and
// FlightRecorder black-box dumps - beyond bare syntax: counter events must
// have the "ph":"C" shape Perfetto expects (name, ts, args.value) with
// monotonic timestamps per (name, tid) track, spans must not end before
// they start, and a black box must carry every section the post-mortem
// tooling reads. Every check reads the telemetry::json DOM, whose find()
// sees only the top level of its object, so keys inside nested containers -
// "args" payloads especially - can never shadow or collide with the fields
// being checked.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "src/telemetry/json.h"

namespace dspcam::tools::tracelint {

/// Outcome of one lint pass. `error` names the first problem found.
struct LintResult {
  bool ok = true;
  std::string error;
  std::size_t spans = 0;     ///< "ph":"X" events seen (lint_trace).
  std::size_t counters = 0;  ///< "ph":"C" events seen (lint_trace).
  std::size_t rows = 0;      ///< Objects seen (lint_jsonl) / events (blackbox).
};

namespace detail {

using telemetry::json::Value;

/// The number at `v`; nullopt when `v` is absent or not a number.
inline std::optional<double> number_at(const Value* v) {
  return v != nullptr ? v->number() : std::nullopt;
}

/// The string at `v`; nullopt when `v` is absent or not a string.
inline std::optional<std::string_view> string_at(const Value* v) {
  return v != nullptr ? v->str() : std::nullopt;
}

inline LintResult fail(std::string why) {
  LintResult r;
  r.ok = false;
  r.error = std::move(why);
  return r;
}

/// Why a failed parse is not JSON.
inline std::string syntax_error(const telemetry::json::Result& r) {
  return "invalid JSON at byte " + std::to_string(r.error_offset) + ": " + r.error;
}

/// The MetricRegistry snapshot shape: counters, gauges and histograms.
inline LintResult lint_metrics(const Value& doc) {
  for (const char* key : {"counters", "gauges", "histograms"}) {
    if (doc.find(key) == nullptr) {
      return fail(std::string("missing top-level \"") + key + "\" key");
    }
  }
  return LintResult{};
}

}  // namespace detail

/// Chrome trace-event JSON: well-formed, has a "traceEvents" array with at
/// least one complete ("X") span, no span with negative duration (an end
/// that precedes its start), and every counter ("C") event carrying the
/// shape Perfetto renders - name, ts, args.value - with non-decreasing
/// timestamps per (name, tid) counter track.
inline LintResult lint_trace(std::string_view text) {
  using namespace detail;
  const telemetry::json::Result doc = telemetry::json::parse(text);
  if (!doc.ok) return fail(syntax_error(doc));
  const Value* events = doc.value.find("traceEvents");
  if (events == nullptr) return fail("missing top-level \"traceEvents\" key");
  if (!events->is_array()) return fail("\"traceEvents\" is not an array");
  LintResult r;
  // Last timestamp per (counter name, tid): Perfetto draws one counter
  // track per pair, and a track with time running backwards renders as
  // garbage (or not at all).
  std::map<std::pair<std::string, double>, double> last_ts;
  std::size_t idx = 0;
  for (const Value& ev : events->items()) {
    const std::string where = "traceEvents[" + std::to_string(idx++) + "]";
    const Value* ph_raw = ev.find("ph");
    if (ph_raw == nullptr) return fail(where + ": missing \"ph\"");
    const auto ph = ph_raw->str();
    if (!ph) return fail(where + ": \"ph\" is not a string");
    if (*ph == "X") {
      ++r.spans;
      const auto name = string_at(ev.find("name"));
      if (!name) return fail(where + ": span missing \"name\"");
      if (!number_at(ev.find("ts"))) return fail(where + ": span missing \"ts\"");
      const auto dur = number_at(ev.find("dur"));
      if (!dur) return fail(where + ": span missing \"dur\"");
      if (*dur < 0) {
        return fail(where + ": span \"" + std::string(*name) +
                    "\" has negative dur (end precedes start)");
      }
    } else if (*ph == "C") {
      ++r.counters;
      const auto name = string_at(ev.find("name"));
      if (!name) return fail(where + ": counter missing \"name\"");
      const auto ts = number_at(ev.find("ts"));
      if (!ts) return fail(where + ": counter missing \"ts\"");
      const Value* args = ev.find("args");
      if (args == nullptr || !args->is_object()) {
        return fail(where + ": counter missing \"args\" object");
      }
      if (!number_at(args->find("value"))) {
        return fail(where + ": counter \"args\" missing numeric \"value\"");
      }
      const auto key = std::make_pair(std::string(*name),
                                      number_at(ev.find("tid")).value_or(0.0));
      const auto it = last_ts.find(key);
      if (it != last_ts.end() && *ts < it->second) {
        return fail(where + ": counter track \"" + key.first +
                    "\" timestamps go backwards");
      }
      last_ts[key] = *ts;
    }
  }
  if (r.spans == 0) return fail("no complete (\"X\") span events");
  return r;
}

/// MetricRegistry snapshot: well-formed with counters/gauges/histograms.
inline LintResult lint_metrics(std::string_view text) {
  const telemetry::json::Result doc = telemetry::json::parse(text);
  return doc.ok ? detail::lint_metrics(doc.value)
                : detail::fail(detail::syntax_error(doc));
}

/// JSON-lines: every non-empty line one well-formed object, at least one.
inline LintResult lint_jsonl(std::string_view text) {
  using namespace detail;
  LintResult r;
  std::size_t lineno = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::string_view line =
        text.substr(start, nl == std::string_view::npos ? std::string_view::npos
                                                        : nl - start);
    ++lineno;
    if (!line.empty() && line != "\r") {
      const telemetry::json::Result doc = telemetry::json::parse(line);
      if (!doc.ok) {
        return fail("line " + std::to_string(lineno) + ": " + syntax_error(doc));
      }
      if (!doc.value.is_object()) {
        return fail("line " + std::to_string(lineno) + ": not a JSON object");
      }
      ++r.rows;
    }
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  if (r.rows == 0) return fail("no JSON objects");
  return r;
}

/// FlightRecorder black box: the self-contained post-mortem artifact. Must
/// be well-formed, identify itself ("kind": "dspcam.blackbox"), carry every
/// section the tooling reads (events + recorded/dropped accounting, health,
/// metrics, spans - the last three may be null but must be present), have
/// strictly increasing event sequence numbers, and no dumped span ending
/// before it starts.
inline LintResult lint_blackbox(std::string_view text) {
  using namespace detail;
  const telemetry::json::Result result = telemetry::json::parse(text);
  if (!result.ok) return fail(syntax_error(result));
  const Value& doc = result.value;
  for (const char* key : {"kind", "version", "cycle", "reason", "events",
                          "events_recorded", "events_dropped", "health",
                          "metrics", "spans"}) {
    if (doc.find(key) == nullptr) {
      return fail(std::string("missing top-level \"") + key + "\" key");
    }
  }
  if (string_at(doc.find("kind")) != "dspcam.blackbox") {
    return fail("\"kind\" is not \"dspcam.blackbox\"");
  }
  const Value& events = *doc.find("events");
  if (!events.is_array()) return fail("\"events\" is not an array");
  LintResult r;
  double last_seq = -1.0;
  std::size_t idx = 0;
  for (const Value& ev : events.items()) {
    const std::string where = "events[" + std::to_string(idx++) + "]";
    for (const char* key : {"seq", "cycle", "kind", "severity", "what"}) {
      if (ev.find(key) == nullptr) {
        return fail(where + ": missing \"" + std::string(key) + "\"");
      }
    }
    const auto seq = ev.find("seq")->number();
    if (!seq) return fail(where + ": \"seq\" is not a number");
    if (*seq <= last_seq) {
      return fail(where + ": event \"seq\" is not strictly increasing");
    }
    last_seq = *seq;
    ++r.rows;
  }
  if (const Value& metrics = *doc.find("metrics"); !metrics.is_null()) {
    const auto inner = lint_metrics(metrics);
    if (!inner.ok) return fail("\"metrics\" section: " + inner.error);
  }
  if (const Value& spans = *doc.find("spans"); !spans.is_null()) {
    if (!spans.is_array()) return fail("\"spans\" is not an array or null");
    std::size_t sidx = 0;
    for (const Value& sp : spans.items()) {
      const std::string where = "spans[" + std::to_string(sidx++) + "]";
      const auto start = number_at(sp.find("start"));
      const auto end = number_at(sp.find("end"));
      if (!start || !end) return fail(where + ": missing \"start\"/\"end\"");
      if (*end < *start) return fail(where + ": span ends before it starts");
    }
  }
  if (const Value& health = *doc.find("health");
      !health.is_null() && !health.is_object()) {
    return fail("\"health\" is not an object or null");
  }
  return r;
}

}  // namespace dspcam::tools::tracelint
