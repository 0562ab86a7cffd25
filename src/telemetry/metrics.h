// Unified metrics plane: typed counters, gauges and log-bucketed histograms
// behind one hierarchical registry.
//
// The paper reads implementation-level counters (cycles, resource activity,
// per-group throughput) out of Vivado; the simulation substitutes for that,
// so every layer of the stack - driver, sharded engine, CAM system, fault
// campaign - reports into one MetricRegistry instead of ad-hoc per-class
// structs. Names are dot-hierarchical ("engine.shard3.queue_depth"), which
// gives free aggregation over subtrees (sum("engine.") = whole engine).
//
// Threading contract (deliberately lock-free): the simulation's one thread
// owns every write - handles are plain std::uint64_t bumps, cheap enough for
// the fast path. Shard stepping never touches the registry; per-shard state
// is *pulled* into it between cycles (CamBackend::record_telemetry), so
// counter values are byte-identical across runs. Snapshots read on the same
// thread between cycles.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dspcam::telemetry {

/// Monotonic event count. Plain increment, no locks.
class Counter {
 public:
  void inc() noexcept { ++value_; }
  void add(std::uint64_t n) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

  /// Pull-model helper: raises the counter to `total` (an externally
  /// accumulated absolute count). Ignored when `total` is behind the
  /// current value, so periodic re-publication is idempotent.
  void update_to(std::uint64_t total) noexcept {
    if (total > value_) value_ = total;
  }

  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (queue depth, credits, headroom).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_ = v; }
  std::int64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::int64_t value_ = 0;
};

/// Log2-bucketed latency/size histogram with percentile estimation.
///
/// Bucket b >= 1 covers [2^(b-1), 2^b - 1]; bucket 0 holds exact zeros, so
/// there are kBuckets = 66 fixed buckets for the full uint64 range. record()
/// is a handful of arithmetic ops and one array bump - fast-path safe.
/// Quantiles are estimated by linear interpolation inside the owning bucket
/// and clamped to the observed [min, max], so p50/p95/p99 are exact for
/// constant streams and within one power of two otherwise.
class Histogram {
 public:
  static constexpr unsigned kBuckets = 66;

  void record(std::uint64_t value) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  std::uint64_t sum() const noexcept { return sum_; }

  /// Estimated value at quantile q in [0, 1].
  double quantile(double q) const noexcept;
  double p50() const noexcept { return quantile(0.50); }
  double p95() const noexcept { return quantile(0.95); }
  double p99() const noexcept { return quantile(0.99); }

  /// Bucket geometry (for tests and exporters).
  static unsigned bucket_index(std::uint64_t value) noexcept;
  static std::uint64_t bucket_lo(unsigned bucket) noexcept;
  static std::uint64_t bucket_hi(unsigned bucket) noexcept;
  std::uint64_t bucket_count(unsigned bucket) const;

  /// Human-readable one-liner ("n=100 min=7 p50=7 p95=7 p99=7 max=9").
  std::string summary() const;

  /// Pull-model helper (the histogram analogue of Counter::update_to):
  /// adopts `source`'s full state when it has seen at least as many samples
  /// as this histogram, so periodic re-publication of an externally owned
  /// histogram is idempotent - and a registry reset() between publications
  /// is healed at the next one. Ignored when `source` is behind (a stale
  /// snapshot must never roll published state back).
  void update_to(const Histogram& source) noexcept;

  void reset() noexcept;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

/// Owns every metric of one deployment, keyed by hierarchical name.
///
/// Lookup (counter()/gauge()/histogram()) is a map find plus lazy creation;
/// hot paths call it once at attach time and keep the returned reference,
/// which stays valid for the registry's lifetime. A name registered as one
/// kind cannot be re-registered as another (ConfigError).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Lookup without creation; nullptr when absent or a different kind.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Sum of every counter at `prefix` exactly or inside its subtree
  /// ("engine" matches "engine" and "engine.shard0.issued", not "engines";
  /// "engine.shard1" matches neither "engine.shard10" nor its subtree). A
  /// trailing dot is accepted and equivalent ("engine." == "engine").
  std::uint64_t sum_counters(std::string_view prefix) const;

  /// Subtree sum restricted to counters whose name ends in `suffix` on a
  /// dot boundary: sum_counters("engine", "parity_flagged") adds
  /// "engine.shard0.parity_flagged" but not "engine.no_parity_flagged".
  /// An empty suffix matches everything (same as the one-argument form).
  std::uint64_t sum_counters(std::string_view prefix,
                             std::string_view suffix) const;

  std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// One JSON object ({"counters":{...},"gauges":{...},"histograms":{...}}),
  /// keys sorted, deterministic across runs.
  std::string to_json() const;

  /// Multi-line human-readable dump for end-of-run reports.
  std::string pretty() const;

  /// Writes to_json() to `path`. Throws ConfigError on open failure.
  void write_json(const std::string& path) const;

  /// Zeroes every metric (names and handles stay registered and valid).
  void reset();

 private:
  void check_unique(const std::string& name, const char* kind) const;

  // unique_ptr values keep handle references stable across rehash/insert.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Writes full registry snapshots to a JSON-lines file on a cycle cadence:
/// each line is {"cycle": C, "metrics": <registry JSON>}. The driver calls
/// maybe_write() once per poll; nothing is written between deadlines.
class SnapshotWriter {
 public:
  /// Throws ConfigError when the file cannot be opened or `every_cycles`
  /// is zero.
  SnapshotWriter(const MetricRegistry& registry, const std::string& path,
                 std::uint64_t every_cycles);

  /// Appends a snapshot when `cycle` has reached the next deadline.
  /// Returns true when a line was written.
  bool maybe_write(std::uint64_t cycle);

  /// Appends a snapshot unconditionally (end-of-run flush).
  void write(std::uint64_t cycle);

  std::uint64_t snapshots_written() const noexcept { return written_; }

 private:
  const MetricRegistry* registry_;
  std::string path_;
  std::uint64_t every_cycles_;
  std::uint64_t next_deadline_ = 0;
  std::uint64_t written_ = 0;

  /// Held open for the writer's lifetime and flushed after every record, so
  /// a crashed run keeps every snapshot it logged (the destructor's close
  /// is a formality, not the only flush point). Reopening per write - the
  /// old behaviour - left the last records in libc buffers on abort.
  std::ofstream out_;
};

}  // namespace dspcam::telemetry
