// Parsing + rendering core for camtop (header-only so tests link it).
//
// camtop is "top" for a running simulation: it tails the snapshots.jsonl
// file a CamDriver writes (one {"cycle": C, "metrics": {...}} line per
// snapshot deadline) and renders the latest line as a text dashboard -
// driver queue/inflight/stall-headroom, latency percentiles, every health
// rule with its trip state, and a per-shard table (credits, parked work,
// quarantine flag, stored entries). Everything here works on strings so the
// tests can drive it without a filesystem; the CLI in camtop.cc adds the
// tailing loop and ANSI repaint.
//
// Lines are read with telemetry::json::parse(); a line that is not one
// well-formed snapshot object is skipped.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/telemetry/json.h"

namespace dspcam::tools::camtop {

namespace detail {

/// `v` as an int64 when it is a number in range.
inline std::optional<std::int64_t> i64(const telemetry::json::Value& v) {
  const std::optional<double> n = v.number();
  if (!n || !(*n >= -9.2e18 && *n <= 9.2e18)) return std::nullopt;
  return static_cast<std::int64_t>(*n);
}

inline std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

}  // namespace detail

/// Percentile summary of one exported histogram.
struct HistStat {
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// One parsed snapshots.jsonl line, indexed for dashboard lookups.
struct SnapshotView {
  std::uint64_t cycle = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistStat> histograms;

  /// Parses one {"cycle": C, "metrics": {...}} line; nullopt when the line
  /// is not a snapshot (malformed, or missing either key).
  static std::optional<SnapshotView> parse(std::string_view line) {
    using telemetry::json::Value;
    const telemetry::json::Result doc = telemetry::json::parse(line);
    const Value* cycle = doc.value.find("cycle");
    const Value* metrics = doc.value.find("metrics");
    if (cycle == nullptr || !cycle->u64() || metrics == nullptr ||
        !metrics->is_object()) {
      return std::nullopt;
    }
    SnapshotView v;
    v.cycle = *cycle->u64();
    if (const Value* c = metrics->find("counters")) {
      for (const auto& [name, value] : c->members()) {
        if (const auto n = value.u64()) v.counters[name] = *n;
      }
    }
    if (const Value* g = metrics->find("gauges")) {
      for (const auto& [name, value] : g->members()) {
        if (const auto n = detail::i64(value)) v.gauges[name] = *n;
      }
    }
    if (const Value* h = metrics->find("histograms")) {
      for (const auto& [name, value] : h->members()) {
        HistStat hs;
        if (const Value* f = value.find("count")) hs.count = f->u64().value_or(0);
        for (auto [key, out] : {std::pair{"p50", &hs.p50}, std::pair{"p95", &hs.p95},
                                std::pair{"p99", &hs.p99}}) {
          if (const Value* f = value.find(key)) *out = f->number().value_or(0.0);
        }
        v.histograms[name] = hs;
      }
    }
    return v;
  }

  std::optional<std::uint64_t> counter(const std::string& name) const {
    const auto it = counters.find(name);
    if (it == counters.end()) return std::nullopt;
    return it->second;
  }
  std::optional<std::int64_t> gauge(const std::string& name) const {
    const auto it = gauges.find(name);
    if (it == gauges.end()) return std::nullopt;
    return it->second;
  }
};

/// The last parseable snapshot in a snapshots.jsonl body (lines after it
/// may be truncated mid-write while the producer is live).
inline std::optional<SnapshotView> last_snapshot(std::string_view text) {
  std::optional<SnapshotView> latest;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::string_view line =
        text.substr(start, nl == std::string_view::npos ? std::string_view::npos
                                                        : nl - start);
    if (auto v = SnapshotView::parse(line)) latest = std::move(v);
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  return latest;
}

/// Renders one snapshot as the camtop dashboard (plain text, no ANSI - the
/// CLI adds screen control around it).
inline std::string render_dashboard(const SnapshotView& v) {
  using detail::fmt;
  std::string out;
  out += "dspcam camtop  cycle " + std::to_string(v.cycle) + "\n";

  // -- Driver ---------------------------------------------------------------
  out += "\ndriver\n";
  out += "  queue=" + std::to_string(v.gauge("driver.queue_depth").value_or(0)) +
         "  inflight=" + std::to_string(v.gauge("driver.inflight").value_or(0)) +
         "  stall_headroom=" +
         std::to_string(v.gauge("driver.stall_headroom").value_or(0)) +
         "  submitted=" +
         std::to_string(v.counter("driver.submitted").value_or(0)) +
         "  completed=" +
         std::to_string(v.counter("driver.completed").value_or(0)) + "\n";
  if (const auto it = v.histograms.find("driver.latency_cycles");
      it != v.histograms.end() && it->second.count > 0) {
    out += "  latency n=" + std::to_string(it->second.count) +
           " p50=" + fmt("%.0f", it->second.p50) +
           " p95=" + fmt("%.0f", it->second.p95) +
           " p99=" + fmt("%.0f", it->second.p99) + "\n";
  }

  // -- Health rules (scan health.<rule>.state gauges) -----------------------
  std::vector<std::string> rules;
  for (const auto& [name, value] : v.gauges) {
    (void)value;
    constexpr std::string_view kPrefix = "health.";
    constexpr std::string_view kSuffix = ".state";
    if (name.size() > kPrefix.size() + kSuffix.size() &&
        name.compare(0, kPrefix.size(), kPrefix) == 0 &&
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) ==
            0) {
      rules.push_back(
          name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size()));
    }
  }
  if (!rules.empty()) {
    out += "\nhealth  (" +
           std::to_string(v.gauge("health.tripped").value_or(0)) +
           " tripped)\n";
    for (const auto& rule : rules) {
      const bool tripped = v.gauge("health." + rule + ".state").value_or(0) != 0;
      out += std::string("  [") + (tripped ? "TRIP" : " ok ") + "] " + rule;
      if (out.size() > 0) {
        // Pad the rule name to keep the trips/value columns aligned.
        const std::size_t pad = rule.size() < 24 ? 24 - rule.size() : 1;
        out.append(pad, ' ');
      }
      out += "trips=" +
             std::to_string(v.counter("health." + rule + ".trips").value_or(0)) +
             "  value=" +
             std::to_string(v.gauge("health." + rule + ".value").value_or(0)) +
             "\n";
    }
  }

  // -- Per-shard table (scan engine.shard<N>.credits gauges) ----------------
  std::vector<std::pair<std::uint64_t, std::string>> shards;
  for (const auto& [name, value] : v.gauges) {
    (void)value;
    constexpr std::string_view kPrefix = "engine.shard";
    constexpr std::string_view kSuffix = ".credits";
    if (name.size() > kPrefix.size() + kSuffix.size() &&
        name.compare(0, kPrefix.size(), kPrefix) == 0 &&
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) ==
            0) {
      const std::string id = name.substr(
          kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
      if (!id.empty() && id.find_first_not_of("0123456789") == std::string::npos) {
        shards.emplace_back(std::stoull(id), "engine.shard" + id);
      }
    }
  }
  if (!shards.empty()) {
    out += "\nshards  id  credits  parked  stored  fifo  state\n";
    for (const auto& [id, sp] : shards) {
      char row[160];
      std::snprintf(row, sizeof(row),
                    "        %-3llu %-8lld %-7lld %-7lld %-5lld %s\n",
                    static_cast<unsigned long long>(id),
                    static_cast<long long>(v.gauge(sp + ".credits").value_or(0)),
                    static_cast<long long>(v.gauge(sp + ".parked").value_or(0)),
                    static_cast<long long>(
                        v.gauge(sp + ".stored_entries").value_or(0)),
                    static_cast<long long>(
                        v.gauge(sp + ".request_fifo_depth").value_or(0)),
                    v.gauge(sp + ".quarantined").value_or(0) != 0
                        ? "QUARANTINED"
                        : "ok");
      out += row;
    }
    out += "  rob search=" +
           std::to_string(v.gauge("engine.rob.search_depth").value_or(0)) +
           " ack=" + std::to_string(v.gauge("engine.rob.ack_depth").value_or(0)) +
           "  quarantined_shards=" +
           std::to_string(v.gauge("engine.quarantined_shards").value_or(0)) +
           "\n";
  }

  // -- Fault plane (only when a campaign reported in). Sums every counter
  // under "fault." per stat so both the injector's and the scrubber's
  // publication prefixes land in one row.
  std::uint64_t injected = 0, detected = 0, corrected = 0, silent = 0;
  bool have_fault = false;
  for (const auto& [name, value] : v.counters) {
    if (name.compare(0, 6, "fault.") != 0) continue;
    have_fault = true;
    if (name.size() >= 9 && name.compare(name.size() - 9, 9, ".injected") == 0) {
      injected += value;
    } else if (name.size() >= 9 &&
               name.compare(name.size() - 9, 9, ".detected") == 0) {
      detected += value;
    } else if (name.size() >= 10 &&
               name.compare(name.size() - 10, 10, ".corrected") == 0) {
      corrected += value;
    } else if (name.size() >= 7 &&
               name.compare(name.size() - 7, 7, ".silent") == 0) {
      silent += value;
    }
  }
  if (have_fault) {
    out += "\nfault  injected=" + std::to_string(injected) +
           "  detected=" + std::to_string(detected) +
           "  corrected=" + std::to_string(corrected) +
           "  silent=" + std::to_string(silent) + "\n";
  }
  return out;
}

}  // namespace dspcam::tools::camtop
