#include "src/telemetry/span.h"

#include <fstream>

#include "src/common/error.h"
#include "src/telemetry/json.h"

namespace dspcam::telemetry {

SpanTracer::SpanTracer(const Config& cfg) : cfg_(cfg) {
  if (cfg_.capacity == 0) {
    throw ConfigError("SpanTracer: ring capacity must be >= 1");
  }
  if (cfg_.max_open == 0) {
    throw ConfigError("SpanTracer: max_open must be >= 1");
  }
  if (cfg_.counter_capacity == 0) {
    throw ConfigError("SpanTracer: counter_capacity must be >= 1");
  }
  ring_.reserve(cfg_.capacity);
}

SpanTracer::SpanId SpanTracer::begin(std::string_view name, std::uint64_t track,
                                     std::uint64_t ts, bool record) {
  if (!record) return kNone;
  // Leak guard: a begin() whose end() never comes (dropped completion,
  // quarantined shard) must not grow the open table forever. Evict the
  // oldest open span; it counts as orphaned and is not exported.
  while (open_.size() >= cfg_.max_open) {
    open_.erase(open_.begin());
    ++orphan_evictions_;
  }
  const SpanId id = next_id_++;
  Span span;
  span.name.assign(name);
  span.track = track;
  span.start = ts;
  span.end = ts;
  open_.emplace(id, std::move(span));
  ++started_;
  return id;
}

void SpanTracer::arg(SpanId id, std::string_view key, std::uint64_t value) {
  if (id == kNone) return;
  auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.args.emplace_back(std::string(key), value);
}

void SpanTracer::end(SpanId id, std::uint64_t ts) {
  if (id == kNone) return;
  auto it = open_.find(id);
  if (it == open_.end()) return;  // orphaned by eviction; drop silently
  Span span = std::move(it->second);
  open_.erase(it);
  span.end = ts < span.start ? span.start : ts;
  push_finished(std::move(span));
  ++finished_;
}

void SpanTracer::discard(SpanId id) {
  if (id == kNone || open_.erase(id) == 0) return;
  --started_;
  if (id + 1 == next_id_) --next_id_;
}

void SpanTracer::push_finished(Span span) {
  if (ring_.size() < cfg_.capacity) {
    ring_.push_back(std::move(span));
    return;
  }
  ring_[ring_next_] = std::move(span);
  ring_next_ = (ring_next_ + 1) % cfg_.capacity;
  ring_wrapped_ = true;
  ++dropped_;
}

void SpanTracer::set_track_name(std::uint64_t track, std::string name) {
  track_names_[track] = std::move(name);
}

void SpanTracer::counter(std::string_view name, std::uint64_t ts,
                         std::int64_t value) {
  CounterSample sample;
  sample.name.assign(name);
  sample.ts = ts;
  sample.value = value;
  ++counters_recorded_;
  if (counters_.size() < cfg_.counter_capacity) {
    counters_.push_back(std::move(sample));
    return;
  }
  counters_[counters_next_] = std::move(sample);
  counters_next_ = (counters_next_ + 1) % cfg_.counter_capacity;
  counters_wrapped_ = true;
  ++counters_dropped_;
}

std::vector<CounterSample> SpanTracer::counter_samples() const {
  std::vector<CounterSample> out;
  out.reserve(counters_.size());
  if (counters_wrapped_) {
    for (std::size_t i = counters_next_; i < counters_.size(); ++i) {
      out.push_back(counters_[i]);
    }
    for (std::size_t i = 0; i < counters_next_; ++i) out.push_back(counters_[i]);
  } else {
    out = counters_;
  }
  return out;
}

std::vector<Span> SpanTracer::finished_spans() const {
  std::vector<Span> out;
  out.reserve(ring_.size());
  if (ring_wrapped_) {
    // Oldest-first: [ring_next_, end) then [0, ring_next_).
    for (std::size_t i = ring_next_; i < ring_.size(); ++i) out.push_back(ring_[i]);
    for (std::size_t i = 0; i < ring_next_; ++i) out.push_back(ring_[i]);
  } else {
    out = ring_;
  }
  return out;
}

std::string SpanTracer::chrome_json() const {
  // One cycle maps to one microsecond: the trace-event "ts"/"dur" unit.
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const auto& [track, name] : track_names_) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": " +
           std::to_string(track) + ", \"args\": {\"name\": " +
           json::quote(name) + "}}";
  }
  for (const Span& span : finished_spans()) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"ph\": \"X\", \"name\": " + json::quote(span.name) +
           ", \"cat\": \"dspcam\", \"pid\": 1, \"tid\": " +
           std::to_string(span.track) + ", \"ts\": " + std::to_string(span.start) +
           ", \"dur\": " + std::to_string(span.end - span.start);
    out += ", \"args\": {";
    for (std::size_t i = 0; i < span.args.size(); ++i) {
      if (i != 0) out += ", ";
      out += json::quote(span.args[i].first) + ": " +
             std::to_string(span.args[i].second);
    }
    out += "}}";
  }
  // Counter series ride on tid 0 - Perfetto groups "ph":"C" events by name,
  // not thread, so one tid keeps the span tracks uncluttered.
  for (const CounterSample& sample : counter_samples()) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"ph\": \"C\", \"name\": " + json::quote(sample.name) +
           ", \"pid\": 1, \"tid\": 0, \"ts\": " + std::to_string(sample.ts) +
           ", \"args\": {\"value\": " + std::to_string(sample.value) + "}}";
  }
  out += "], \"displayTimeUnit\": \"ms\"}";
  return out;
}

void SpanTracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw ConfigError("SpanTracer: cannot open " + path);
  out << chrome_json() << "\n";
}

void SpanTracer::clear() {
  open_.clear();
  ring_.clear();
  ring_next_ = 0;
  ring_wrapped_ = false;
  started_ = finished_ = dropped_ = orphan_evictions_ = 0;
  counters_.clear();
  counters_next_ = 0;
  counters_wrapped_ = false;
  counters_recorded_ = counters_dropped_ = 0;
}

}  // namespace dspcam::telemetry
