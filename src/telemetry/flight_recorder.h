// Flight recorder: a bounded ring of typed, structured lifecycle events and
// the black-box dump written when something goes wrong.
//
// The metric registry answers "how much"; the span tracer answers "when was
// this request where"; neither preserves *what happened* once a run dies in
// a SimError. The flight recorder fills that hole: every layer of the stack
// appends its rare, load-bearing events - shard quarantine, watchdog trips,
// rebuild/reshard phases, checkpoint/restore, fault pokes, health-rule
// transitions - into one fixed-capacity ring, and on failure (or on demand)
// the recorder serialises a self-contained JSON "black box": the last N
// events plus the current metric snapshot, recent spans and health states.
// The dump is plain JSON (written around json::quote() and read back by
// json::parse() in tests and trace_lint), so a post-mortem needs nothing but
// the file.
//
// Threading contract: like MetricRegistry and SpanTracer, the recorder is
// written only from the simulation's one thread (driver poll loop, engine
// submit/collect passes, the fault layer's cycle hook), so no locks are
// needed and - because every event is stamped with a simulation cycle, never
// wall-clock - the recorded history is byte-identical across runs and eval
// modes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dspcam::telemetry {

class MetricRegistry;  // metrics.h
class SpanTracer;      // span.h
class HealthMonitor;   // health.h

/// Shared severity scale for flight-recorder events and health rules.
enum class Severity { kInfo = 0, kWarn = 1, kCritical = 2 };
const char* to_string(Severity severity);

/// Bounded ring of typed lifecycle events + black-box JSON dumps.
class FlightRecorder {
 public:
  /// What happened. One enum for the whole stack so dumps stay greppable;
  /// kCustom (with a descriptive `what`) covers anything not listed.
  enum class EventKind {
    kHealthTrip,    ///< A health rule crossed its trip threshold.
    kHealthClear,   ///< A tripped rule recovered past its clear threshold.
    kWatchdogTrip,  ///< CamDriver stall watchdog fired (SimError follows).
    kQuarantine,    ///< ShardedCamEngine took a shard out of service.
    kRebuild,       ///< Quarantined-shard rebuild (start/verified/failed).
    kReshard,       ///< Live resharding phase (begin/done).
    kCheckpoint,    ///< Whole-engine checkpoint captured.
    kRestore,       ///< Checkpoint restored into the engine.
    kFaultPoke,     ///< FaultInjector flipped a bit.
    kScrubSilent,   ///< Scrubber repaired a *silent* corruption.
    kCustom,        ///< Anything else; `what` carries the story.
  };
  static const char* to_string(EventKind kind);

  /// One recorded event. `seq` is the global record index (monotonic even
  /// after ring overwrites, so a dump shows how much history was lost).
  struct Event {
    std::uint64_t seq = 0;
    std::uint64_t cycle = 0;
    EventKind kind = EventKind::kCustom;
    Severity severity = Severity::kInfo;
    std::string what;
    std::vector<std::pair<std::string, std::uint64_t>> args;
  };

  struct Config {
    std::size_t capacity = 256;  ///< Events held; older ones are dropped.
    std::size_t dump_spans = 64; ///< Most-recent finished spans per dump.
  };

  FlightRecorder() : FlightRecorder(Config{}) {}
  explicit FlightRecorder(const Config& cfg);  ///< ConfigError on capacity 0.

  const Config& config() const noexcept { return cfg_; }

  /// Appends one event (overwriting the oldest when the ring is full).
  void record(std::uint64_t cycle, EventKind kind, Severity severity,
              std::string what,
              std::vector<std::pair<std::string, std::uint64_t>> args = {});

  /// Events currently held, oldest first.
  std::vector<Event> events() const;

  std::uint64_t recorded() const noexcept { return recorded_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::size_t size() const noexcept { return ring_.size(); }

  /// Discards all events and zeroes the accounting.
  void clear();

  // --- Black box. ---

  /// Self-contained JSON dump: {"kind": "dspcam.blackbox", "version": 1,
  /// "cycle": ..., "reason": ..., "events": [...], "health": {...}|null,
  /// "metrics": {...}|null, "spans": [...]|null}. Optional sections are
  /// emitted as null when the matching pointer is absent. Deterministic for
  /// a deterministic run (cycle timestamps only, sorted registry keys).
  std::string dump_json(std::uint64_t cycle, const std::string& reason,
                        const MetricRegistry* metrics = nullptr,
                        const SpanTracer* spans = nullptr,
                        const HealthMonitor* health = nullptr) const;

  /// Writes dump_json() to `path`. Throws ConfigError on open failure.
  void write_dump(const std::string& path, std::uint64_t cycle,
                  const std::string& reason,
                  const MetricRegistry* metrics = nullptr,
                  const SpanTracer* spans = nullptr,
                  const HealthMonitor* health = nullptr) const;

 private:
  Config cfg_;
  std::vector<Event> ring_;   ///< Ring of cfg_.capacity.
  std::size_t ring_next_ = 0; ///< Next slot to overwrite once wrapped.
  bool ring_wrapped_ = false;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace dspcam::telemetry
