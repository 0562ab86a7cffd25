// Latency and throughput measurement for cycle simulations.
//
// Every benchmark in this project reports the same metrics the paper uses:
// end-to-end latency in cycles and operations per second. LatencyStats
// accumulates per-operation cycle latencies (issue cycle stamped on the
// request, completion cycle observed at the response); ThroughputStats
// derives op/s from completed-op counts, elapsed cycles, and the timing
// model's clock frequency.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "src/telemetry/metrics.h"

namespace dspcam::sim {

/// Cycle count type used throughout the simulator.
using Cycle = std::uint64_t;

/// Accumulates per-operation latencies measured in cycles.
///
/// Backed by the telemetry layer's log-bucketed histogram, so percentile
/// tails (p50/p95/p99) come for free next to the exact mean/min/max; the
/// exact per-value histogram() map is kept for the deterministic-latency
/// checks the paper's tables rely on.
class LatencyStats {
 public:
  /// Records one completed operation with the given latency.
  void record(Cycle latency);

  std::uint64_t count() const noexcept { return hist_.count(); }
  Cycle min() const noexcept { return hist_.min(); }
  Cycle max() const noexcept { return hist_.max(); }
  double mean() const noexcept { return hist_.mean(); }

  /// Percentile estimates from the log-bucketed backing histogram (exact
  /// for deterministic latencies; within one power of two otherwise).
  double percentile(double q) const noexcept { return hist_.quantile(q); }
  double p50() const noexcept { return hist_.p50(); }
  double p95() const noexcept { return hist_.p95(); }
  double p99() const noexcept { return hist_.p99(); }

  /// The backing log-bucketed histogram (for telemetry export).
  const telemetry::Histogram& buckets() const noexcept { return hist_; }

  /// True if every recorded latency equals `latency` (the paper's tables
  /// report a single deterministic latency per configuration; this checks
  /// the simulation agrees).
  bool constant_at(Cycle latency) const noexcept {
    return count() > 0 && min() == latency && max() == latency;
  }

  /// Exact latency histogram: latency value -> number of operations.
  const std::map<Cycle, std::uint64_t>& histogram() const noexcept { return histogram_; }

  /// Human-readable one-line summary
  /// ("n=100 min=7 mean=7.00 p95=7 p99=7 max=7").
  std::string summary() const;

  void reset();

 private:
  telemetry::Histogram hist_;
  std::map<Cycle, std::uint64_t> histogram_;
};

/// Derives throughput figures from completed operations over elapsed cycles.
///
/// Like LatencyStats, the per-record retirement counts feed a log-bucketed
/// histogram, so burstiness percentiles (p50/p95/p99 ops per record) ride
/// along with the aggregate rate.
class ThroughputStats {
 public:
  /// Records `ops` operations completing (typically called once per cycle
  /// with the number of ops retired that cycle).
  void record_ops(std::uint64_t ops) noexcept {
    ops_ += ops;
    per_record_.record(ops);
  }

  /// Marks the measurement window [start, end) in cycles.
  void set_window(Cycle start_cycle, Cycle end_cycle) noexcept {
    start_ = start_cycle;
    end_ = end_cycle;
  }

  std::uint64_t ops() const noexcept { return ops_; }
  Cycle cycles() const noexcept { return end_ > start_ ? end_ - start_ : 0; }

  /// Operations per cycle over the window.
  double ops_per_cycle() const noexcept {
    const Cycle c = cycles();
    return c == 0 ? 0.0 : static_cast<double>(ops_) / static_cast<double>(c);
  }

  /// Mega-operations per second at the given clock frequency. The paper's
  /// Tables VI and VIII report this unit (printed as "op/s" there; 4800
  /// means 4800 Mop/s = 16 words/cycle x 300 MHz).
  double mops_per_second(double freq_mhz) const noexcept {
    return ops_per_cycle() * freq_mhz;
  }

  /// Distribution of ops per record_ops() call (retirement burstiness).
  const telemetry::Histogram& per_record() const noexcept { return per_record_; }

  void reset() noexcept {
    ops_ = 0;
    start_ = end_ = 0;
    per_record_.reset();
  }

 private:
  std::uint64_t ops_ = 0;
  Cycle start_ = 0;
  Cycle end_ = 0;
  telemetry::Histogram per_record_;
};

/// Counters for one fault-injection campaign (src/fault/). `injected` is
/// owned by the FaultInjector; the detection/repair counters are owned by
/// the Scrubber, which classifies each corruption it finds as `detected`
/// (the stored parity bit disagreed with the recomputed one - the mitigation
/// saw it) or `silent` (state differed from golden but parity agreed -
/// multi-bit upsets, valid+mask compensating flips, or unprotected targets).
/// Every corruption the scrubber repairs counts in `corrected`.
struct FaultStats {
  std::uint64_t injected = 0;
  std::uint64_t detected = 0;
  std::uint64_t corrected = 0;
  std::uint64_t silent = 0;

  FaultStats& operator+=(const FaultStats& other) noexcept {
    injected += other.injected;
    detected += other.detected;
    corrected += other.corrected;
    silent += other.silent;
    return *this;
  }

  /// Human-readable one-line summary
  /// ("injected=12 detected=10 corrected=12 silent=2").
  std::string summary() const;

  /// Publishes the four counters into `registry` under `prefix`
  /// ("<prefix>.injected", ...). Counters are raised to the current totals,
  /// so periodic re-publication from the polling thread is idempotent.
  void record_telemetry(telemetry::MetricRegistry& registry,
                        const std::string& prefix) const;
};

}  // namespace dspcam::sim
