#include "src/telemetry/flight_recorder.h"

#include <fstream>

#include "src/common/error.h"
#include "src/telemetry/health.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"

namespace dspcam::telemetry {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kCritical: return "critical";
  }
  return "unknown";
}

const char* FlightRecorder::to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kHealthTrip: return "health_trip";
    case EventKind::kHealthClear: return "health_clear";
    case EventKind::kWatchdogTrip: return "watchdog_trip";
    case EventKind::kQuarantine: return "quarantine";
    case EventKind::kRebuild: return "rebuild";
    case EventKind::kReshard: return "reshard";
    case EventKind::kCheckpoint: return "checkpoint";
    case EventKind::kRestore: return "restore";
    case EventKind::kFaultPoke: return "fault_poke";
    case EventKind::kScrubSilent: return "scrub_silent";
    case EventKind::kCustom: return "custom";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(const Config& cfg) : cfg_(cfg) {
  if (cfg_.capacity == 0) {
    throw ConfigError("FlightRecorder: ring capacity must be >= 1");
  }
  ring_.reserve(cfg_.capacity);
}

void FlightRecorder::record(
    std::uint64_t cycle, EventKind kind, Severity severity, std::string what,
    std::vector<std::pair<std::string, std::uint64_t>> args) {
  Event ev;
  ev.seq = recorded_++;
  ev.cycle = cycle;
  ev.kind = kind;
  ev.severity = severity;
  ev.what = std::move(what);
  ev.args = std::move(args);
  if (ring_.size() < cfg_.capacity) {
    ring_.push_back(std::move(ev));
    return;
  }
  ring_[ring_next_] = std::move(ev);
  ring_next_ = (ring_next_ + 1) % cfg_.capacity;
  ring_wrapped_ = true;
  ++dropped_;
}

std::vector<FlightRecorder::Event> FlightRecorder::events() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  if (ring_wrapped_) {
    for (std::size_t i = ring_next_; i < ring_.size(); ++i) out.push_back(ring_[i]);
    for (std::size_t i = 0; i < ring_next_; ++i) out.push_back(ring_[i]);
  } else {
    out = ring_;
  }
  return out;
}

void FlightRecorder::clear() {
  ring_.clear();
  ring_next_ = 0;
  ring_wrapped_ = false;
  recorded_ = 0;
  dropped_ = 0;
}

std::string FlightRecorder::dump_json(std::uint64_t cycle,
                                      const std::string& reason,
                                      const MetricRegistry* metrics,
                                      const SpanTracer* spans,
                                      const HealthMonitor* health) const {
  std::string out = "{\"kind\": \"dspcam.blackbox\", \"version\": 1";
  out += ", \"cycle\": " + std::to_string(cycle);
  out += ", \"reason\": " + json::quote(reason);
  out += ", \"events_recorded\": " + std::to_string(recorded_);
  out += ", \"events_dropped\": " + std::to_string(dropped_);
  out += ", \"events\": [";
  bool first = true;
  for (const Event& ev : events()) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"seq\": " + std::to_string(ev.seq) +
           ", \"cycle\": " + std::to_string(ev.cycle) + ", \"kind\": \"" +
           to_string(ev.kind) + "\", \"severity\": \"" +
           telemetry::to_string(ev.severity) + "\", \"what\": " +
           json::quote(ev.what) + ", \"args\": {";
    for (std::size_t i = 0; i < ev.args.size(); ++i) {
      if (i != 0) out += ", ";
      out += json::quote(ev.args[i].first) + ": " +
             std::to_string(ev.args[i].second);
    }
    out += "}}";
  }
  out += "]";
  out += ", \"health\": ";
  out += health != nullptr ? health->to_json() : "null";
  out += ", \"metrics\": ";
  out += metrics != nullptr ? metrics->to_json() : "null";
  out += ", \"spans\": ";
  if (spans == nullptr) {
    out += "null";
  } else {
    // Most-recent finished spans, capped at dump_spans, in span order.
    std::vector<Span> all = spans->finished_spans();
    const std::size_t begin =
        all.size() > cfg_.dump_spans ? all.size() - cfg_.dump_spans : 0;
    out += "[";
    for (std::size_t i = begin; i < all.size(); ++i) {
      if (i != begin) out += ",\n";
      out += "{\"name\": " + json::quote(all[i].name) +
             ", \"track\": " + std::to_string(all[i].track) +
             ", \"start\": " + std::to_string(all[i].start) +
             ", \"end\": " + std::to_string(all[i].end) + "}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

void FlightRecorder::write_dump(const std::string& path, std::uint64_t cycle,
                                const std::string& reason,
                                const MetricRegistry* metrics,
                                const SpanTracer* spans,
                                const HealthMonitor* health) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw ConfigError("FlightRecorder::write_dump: cannot open " + path);
  out << dump_json(cycle, reason, metrics, spans, health) << "\n";
}

}  // namespace dspcam::telemetry
