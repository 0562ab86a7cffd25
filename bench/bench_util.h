// Shared helpers for the table-reproduction bench binaries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cam/unit.h"
#include "src/common/table.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics.h"

namespace dspcam::bench {

/// Flags shared by the bench harnesses:
///   --json <path>  append machine-readable JSON-lines rows to <path>
///   --warmup N     unmeasured runs before timing starts (default 1)
///   --repeat N     measured runs aggregated into median +- stddev (default 5)
struct BenchOptions {
  std::string json_path;
  unsigned warmup = 1;
  unsigned repeat = 5;

  /// Parses the common flags; unknown arguments are ignored so harnesses can
  /// layer their own. `default_json` (may be empty) is used when --json is
  /// absent, letting a harness always emit its artifact.
  static BenchOptions from_args(int argc, char** argv,
                                std::string default_json = "") {
    BenchOptions opt;
    opt.json_path = std::move(default_json);
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        opt.json_path = argv[++i];
      } else if (arg == "--warmup" && i + 1 < argc) {
        opt.warmup = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      } else if (arg == "--repeat" && i + 1 < argc) {
        opt.repeat = std::max(1u, static_cast<unsigned>(
                                      std::strtoul(argv[++i], nullptr, 10)));
      }
    }
    return opt;
  }
};

/// Summary statistics over repeated measurements of one metric.
struct RepeatStats {
  double median = 0;
  double mean = 0;
  double stddev = 0;
  double min = 0;
  double max = 0;
  unsigned samples = 0;

  static RepeatStats of(std::vector<double> xs) {
    RepeatStats st;
    if (xs.empty()) return st;
    st.samples = static_cast<unsigned>(xs.size());
    std::sort(xs.begin(), xs.end());
    st.min = xs.front();
    st.max = xs.back();
    const std::size_t mid = xs.size() / 2;
    st.median = xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
    double sum = 0;
    for (const double x : xs) sum += x;
    st.mean = sum / static_cast<double>(xs.size());
    double var = 0;
    for (const double x : xs) var += (x - st.mean) * (x - st.mean);
    st.stddev = xs.size() > 1
                    ? std::sqrt(var / static_cast<double>(xs.size() - 1))
                    : 0.0;
    return st;
  }
};

/// Runs `measure_once` (returning one scalar metric) warmup + repeat times
/// and aggregates the measured runs.
template <typename Fn>
RepeatStats measure_repeated(const BenchOptions& opt, Fn&& measure_once) {
  for (unsigned i = 0; i < opt.warmup; ++i) (void)measure_once();
  std::vector<double> samples;
  samples.reserve(opt.repeat);
  for (unsigned i = 0; i < opt.repeat; ++i) samples.push_back(measure_once());
  return RepeatStats::of(std::move(samples));
}

/// Two-metric variant: `measure_once` returns {primary, secondary} and BOTH
/// series exclude the warmup runs. (Pushing the secondary metric into a
/// side vector from inside the measured lambda counts warmup runs too,
/// skewing its sample count and stats relative to the primary's - the bug
/// this helper replaces.)
template <typename Fn>
std::pair<RepeatStats, RepeatStats> measure_repeated_pair(
    const BenchOptions& opt, Fn&& measure_once) {
  for (unsigned i = 0; i < opt.warmup; ++i) (void)measure_once();
  std::vector<double> primary, secondary;
  primary.reserve(opt.repeat);
  secondary.reserve(opt.repeat);
  for (unsigned i = 0; i < opt.repeat; ++i) {
    const std::pair<double, double> sample = measure_once();
    primary.push_back(sample.first);
    secondary.push_back(sample.second);
  }
  return {RepeatStats::of(std::move(primary)),
          RepeatStats::of(std::move(secondary))};
}

/// Machine-readable bench output: when a harness is invoked with
/// `--json <path>`, every result row is also appended to <path> as one JSON
/// object per line (JSON Lines), so sweeps can be diffed and plotted without
/// scraping the human tables. Without the flag the logger is inert.
class JsonLog {
 public:
  JsonLog() = default;

  /// A logger writing to `path` (inert when empty).
  explicit JsonLog(std::string path) : path_(std::move(path)) {}

  /// Parses `--json <path>` out of the command line (other args ignored).
  static JsonLog from_args(int argc, char** argv) {
    JsonLog log;
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        log.path_ = argv[i + 1];
        break;
      }
    }
    return log;
  }

  /// Logger bound to the options' json path (possibly the harness default).
  static JsonLog from_options(const BenchOptions& opt) { return JsonLog(opt.json_path); }

  bool enabled() const noexcept { return !path_.empty(); }

  /// One result row under construction; fields keep insertion order.
  class Row {
   public:
    explicit Row(std::string bench) { str("bench", std::move(bench)); }
    Row& str(const std::string& key, const std::string& value) {
      fields_.emplace_back(key, telemetry::json::quote(value));
      return *this;
    }
    Row& num(const std::string& key, double value) {
      fields_.emplace_back(key, telemetry::json::number(value));
      return *this;
    }
    Row& num(const std::string& key, std::uint64_t value) {
      fields_.emplace_back(key, std::to_string(value));
      return *this;
    }
    Row& boolean(const std::string& key, bool value) {
      fields_.emplace_back(key, value ? "true" : "false");
      return *this;
    }
    /// Embeds pre-serialised JSON verbatim (an object/array value, e.g. a
    /// MetricRegistry::to_json() snapshot). The caller guarantees validity.
    Row& raw(const std::string& key, std::string json) {
      fields_.emplace_back(key, std::move(json));
      return *this;
    }
    std::string to_json() const {
      std::string out = "{";
      for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i != 0) out += ", ";
        out += telemetry::json::quote(fields_[i].first) + ": " + fields_[i].second;
      }
      return out + "}";
    }

   private:
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  /// Appends one row (no-op when --json was not given). The file is
  /// truncated on the first emit of the process, appended after.
  void emit(const Row& row) {
    if (!enabled()) return;
    std::ofstream out(path_, opened_ ? std::ios::app : std::ios::trunc);
    opened_ = true;
    out << row.to_json() << "\n";
  }

 private:
  std::string path_;
  bool opened_ = false;
};

/// Appends a RepeatStats as `<prefix>_{median,mean,stddev,min,max}` fields.
inline JsonLog::Row& add_stats(JsonLog::Row& row, const std::string& prefix,
                               const RepeatStats& st) {
  row.num(prefix + "_median", st.median)
      .num(prefix + "_mean", st.mean)
      .num(prefix + "_stddev", st.stddev)
      .num(prefix + "_min", st.min)
      .num(prefix + "_max", st.max)
      .num(prefix + "_samples", static_cast<std::uint64_t>(st.samples));
  return row;
}

/// Embeds a telemetry snapshot in a bench row: the registry's full metric
/// dump (counters, gauges, histogram summaries) lands under a "telemetry"
/// key, so BENCH_*.json rows carry the observability state alongside the
/// measured figures.
inline JsonLog::Row& add_telemetry(JsonLog::Row& row,
                                   const telemetry::MetricRegistry& registry) {
  row.raw("telemetry", registry.to_json());
  return row;
}

/// Prints a section banner.
inline void banner(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

/// Formats "measured (paper X)" cells.
inline std::string vs_paper(const std::string& measured, const std::string& paper) {
  return measured + " (paper " + paper + ")";
}

/// Steps a self-clocking component one cycle.
template <typename C>
void step(C& c) {
  c.eval();
  c.commit();
}

/// Measures a CAM unit's end-to-end update latency in cycles: issue one
/// update beat into an idle unit and count cycles until the ack appears.
inline unsigned measure_unit_update_latency(cam::CamUnit& unit) {
  cam::UnitRequest req;
  req.op = cam::OpKind::kUpdate;
  req.words = {42};
  req.seq = 987654;
  unit.issue(std::move(req));
  for (unsigned cycle = 1; cycle <= 64; ++cycle) {
    step(unit);
    if (unit.update_ack().has_value() && unit.update_ack()->seq == 987654) {
      return cycle;
    }
  }
  return 0;
}

/// Measures a CAM unit's end-to-end search latency in cycles.
inline unsigned measure_unit_search_latency(cam::CamUnit& unit, cam::Word key) {
  cam::UnitRequest req;
  req.op = cam::OpKind::kSearch;
  req.keys = {key};
  req.seq = 123456;
  unit.issue(std::move(req));
  for (unsigned cycle = 1; cycle <= 64; ++cycle) {
    step(unit);
    if (unit.response().has_value() && unit.response()->seq == 123456) {
      return cycle;
    }
  }
  return 0;
}

/// Verifies initiation interval 1 by streaming `ops` searches back-to-back
/// and returning ops per cycle over the issue window (1.0 = fully pipelined).
inline double measure_unit_search_ii(cam::CamUnit& unit, unsigned ops) {
  unsigned responses = 0;
  unsigned cycles = 0;
  for (unsigned cyc = 0; responses < ops && cyc < ops + 64; ++cyc) {
    if (cyc < ops) {
      cam::UnitRequest req;
      req.op = cam::OpKind::kSearch;
      req.keys = {cyc};
      req.seq = 1000000 + cyc;
      unit.issue(std::move(req));
    }
    step(unit);
    ++cycles;
    if (unit.response().has_value()) ++responses;
  }
  // Subtract the pipeline fill to get the steady-state rate.
  const unsigned steady = cycles > unit.search_latency() ? cycles - unit.search_latency() : 1;
  return static_cast<double>(responses) / static_cast<double>(steady);
}

}  // namespace dspcam::bench
