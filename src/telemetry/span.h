// Request-span tracing with Chrome trace-event / Perfetto JSON export.
//
// Every sampled CamDriver ticket becomes a waterfall of spans as it moves
// through the stack:
//
//   track 0 "driver.tickets"   submit -> completion        (whole lifetime)
//   track 1 "driver.queue"     submit -> backend accept    (retry queueing)
//   track 2 "engine.beats"     dispatch -> reorder done    (sharded engine)
//   track 16+s "shard<s>"      sub-op issue -> collection  (per shard)
//
// Spans live in a bounded ring - a full ring overwrites the oldest finished
// span (counted in dropped()) so steady-state tracing never grows. The
// sampling knob records 1-in-N tickets so full-rate benches stay fast; an
// unsampled ticket costs one modulo test. Timestamps are simulation cycles,
// exported as microseconds (1 cycle = 1 us) so Perfetto / chrome://tracing
// open the file directly.
//
// Threading: like MetricRegistry, the tracer is written only from the
// simulation's one thread (driver poll loop, engine submit/collect passes),
// so no locks are needed and traces are identical across runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dspcam::telemetry {

/// One completed (or still-open) span.
struct Span {
  std::string name;
  std::uint64_t track = 0;  ///< Exported as the Chrome trace "tid".
  std::uint64_t start = 0;  ///< Cycle the span opened.
  std::uint64_t end = 0;    ///< Cycle the span closed (>= start).
  std::vector<std::pair<std::string, std::uint64_t>> args;
};

/// One sample of a utilization counter series (queue depth, active blocks,
/// ...). Exported as a Chrome trace counter event
/// ("ph":"C"), which Perfetto renders as a value-over-time heatline.
struct CounterSample {
  std::string name;       ///< Series name ("engine.shard0.queue_depth").
  std::uint64_t ts = 0;   ///< Cycle sampled.
  std::int64_t value = 0;
};

/// Bounded, sampled span recorder.
class SpanTracer {
 public:
  struct Config {
    std::size_t capacity = 8192;      ///< Finished-span ring size.
    std::uint64_t sample_every = 16;  ///< Record 1-in-N tickets (1 = all).
    std::size_t max_open = 1024;      ///< Open spans before the oldest is
                                      ///< force-orphaned (leak guard).
    std::size_t counter_capacity = 4096;  ///< Counter-sample ring size.
  };

  /// Identifies an open span. 0 is the reserved "not recorded" id, returned
  /// for unsampled work so callers can thread it through unconditionally.
  using SpanId = std::uint64_t;
  static constexpr SpanId kNone = 0;

  SpanTracer() : SpanTracer(Config{}) {}
  explicit SpanTracer(const Config& cfg);

  const Config& config() const noexcept { return cfg_; }

  /// Sampling decision for a ticket/sequence number. Deterministic: the
  /// same id always samples the same way.
  bool sampled(std::uint64_t id) const noexcept {
    return cfg_.sample_every != 0 && id % cfg_.sample_every == 0;
  }

  /// Opens a span. Returns kNone (and records nothing) when `record` is
  /// false, so call sites can pass sampled(ticket) straight through.
  SpanId begin(std::string_view name, std::uint64_t track, std::uint64_t ts,
               bool record = true);

  /// Attaches a key/value argument to an open span. No-op for kNone or an
  /// already-closed/orphaned id.
  void arg(SpanId id, std::string_view key, std::uint64_t value);

  /// Closes a span at `ts` and moves it into the finished ring. No-op for
  /// kNone or an unknown (orphaned) id.
  void end(SpanId id, std::uint64_t ts);

  /// Forgets an open span as if it had never begun (work that was refused
  /// before it started). No-op for kNone or an unknown id.
  void discard(SpanId id);

  /// Names a track in the exported trace (Chrome thread_name metadata).
  void set_track_name(std::uint64_t track, std::string name);

  /// Records one utilization counter sample. Series share one bounded ring
  /// (oldest sample dropped when full); within a series, callers sample at
  /// non-decreasing ts (the publish cadence), which trace_lint enforces on
  /// the exported file.
  void counter(std::string_view name, std::uint64_t ts, std::int64_t value);

  // --- Accounting. ---

  std::uint64_t started() const noexcept { return started_; }
  std::uint64_t finished() const noexcept { return finished_; }
  /// Finished spans pushed out of the full ring.
  std::uint64_t dropped() const noexcept { return dropped_; }
  /// Spans opened but never closed: still open now, or evicted from the
  /// open table after max_open newer spans piled up.
  std::uint64_t orphaned() const noexcept {
    return orphan_evictions_ + open_.size();
  }
  std::size_t open_count() const noexcept { return open_.size(); }

  /// Finished spans currently held (oldest first).
  std::vector<Span> finished_spans() const;

  /// Counter samples currently held (oldest first).
  std::vector<CounterSample> counter_samples() const;

  std::uint64_t counters_recorded() const noexcept { return counters_recorded_; }
  /// Counter samples pushed out of the full ring.
  std::uint64_t counters_dropped() const noexcept { return counters_dropped_; }

  // --- Export. ---

  /// Chrome trace-event JSON ({"traceEvents": [...]}) of every finished
  /// span plus every counter sample ("ph":"C" events), loadable by Perfetto
  /// and chrome://tracing. Open spans are not exported (they are orphans
  /// until end() runs).
  std::string chrome_json() const;

  /// Writes chrome_json() to `path`. Throws ConfigError on open failure.
  void write_chrome_json(const std::string& path) const;

  /// Discards all spans and zeroes the accounting (track names persist).
  void clear();

 private:
  void push_finished(Span span);

  Config cfg_;
  SpanId next_id_ = 1;

  std::map<SpanId, Span> open_;  ///< Ordered: begin order = id order.
  std::vector<Span> ring_;       ///< Finished spans, ring of cfg_.capacity.
  std::size_t ring_next_ = 0;    ///< Next slot to overwrite.
  bool ring_wrapped_ = false;

  std::vector<CounterSample> counters_;  ///< Ring of cfg_.counter_capacity.
  std::size_t counters_next_ = 0;
  bool counters_wrapped_ = false;
  std::uint64_t counters_recorded_ = 0;
  std::uint64_t counters_dropped_ = 0;

  std::map<std::uint64_t, std::string> track_names_;

  std::uint64_t started_ = 0;
  std::uint64_t finished_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t orphan_evictions_ = 0;
};

}  // namespace dspcam::telemetry
