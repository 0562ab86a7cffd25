#include "src/telemetry/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>

#include "src/common/error.h"
#include "src/telemetry/json.h"

namespace dspcam::telemetry {

// --- Histogram. ---

unsigned Histogram::bucket_index(std::uint64_t value) noexcept {
  // 0 -> bucket 0; otherwise bucket = bit_width(v), so bucket b covers
  // [2^(b-1), 2^b - 1].
  return value == 0 ? 0 : static_cast<unsigned>(std::bit_width(value));
}

std::uint64_t Histogram::bucket_lo(unsigned bucket) noexcept {
  if (bucket <= 1) return bucket;  // bucket 0 = {0}, bucket 1 starts at 1
  if (bucket >= 65) return ~std::uint64_t{0};  // unreachable guard slot
  return std::uint64_t{1} << (bucket - 1);
}

std::uint64_t Histogram::bucket_hi(unsigned bucket) noexcept {
  if (bucket == 0) return 0;
  // bit_width never exceeds 64, so bucket 64 tops out the u64 range and the
  // 66th slot is an unreachable guard. Shifting by >= 64 is UB, so both top
  // buckets clamp instead of shifting.
  if (bucket >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << bucket) - 1;
}

std::uint64_t Histogram::bucket_count(unsigned bucket) const {
  if (bucket >= kBuckets) {
    throw ConfigError("Histogram::bucket_count: bucket index out of range");
  }
  return buckets_[bucket];
}

void Histogram::record(std::uint64_t value) noexcept {
  ++buckets_[bucket_index(value)];
  ++count_;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min());
  if (q >= 1.0) return static_cast<double>(max_);
  // Rank of the q-th sample (1-based), then walk the buckets to find it and
  // interpolate linearly inside the owning bucket's value range.
  const std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1)) + 1;
  std::uint64_t seen = 0;
  for (unsigned b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    if (seen + buckets_[b] < rank) {
      seen += buckets_[b];
      continue;
    }
    const double lo = static_cast<double>(bucket_lo(b));
    const double hi = static_cast<double>(bucket_hi(b));
    const double frac = buckets_[b] <= 1
                            ? 0.0
                            : static_cast<double>(rank - seen - 1) /
                                  static_cast<double>(buckets_[b] - 1);
    double v = lo + frac * (hi - lo);
    // The observed extrema are exact; never report outside them.
    v = std::max(v, static_cast<double>(min()));
    v = std::min(v, static_cast<double>(max_));
    return v;
  }
  return static_cast<double>(max_);
}

std::string Histogram::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "n=%llu min=%llu p50=%.0f p95=%.0f p99=%.0f max=%llu",
                static_cast<unsigned long long>(count_),
                static_cast<unsigned long long>(min()), p50(), p95(), p99(),
                static_cast<unsigned long long>(max_));
  return buf;
}

void Histogram::update_to(const Histogram& source) noexcept {
  if (source.count_ < count_) return;  // stale snapshot: keep published state
  *this = source;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b = 0;
  count_ = 0;
  sum_ = 0;
  min_ = ~std::uint64_t{0};
  max_ = 0;
}

// --- MetricRegistry. ---

void MetricRegistry::check_unique(const std::string& name, const char* kind) const {
  if (name.empty()) throw ConfigError("MetricRegistry: empty metric name");
  const bool taken =
      (counters_.count(name) != 0 && std::string_view(kind) != "counter") ||
      (gauges_.count(name) != 0 && std::string_view(kind) != "gauge") ||
      (histograms_.count(name) != 0 && std::string_view(kind) != "histogram");
  if (taken) {
    throw ConfigError("MetricRegistry: metric '" + name +
                      "' already registered as a different kind than " + kind);
  }
}

Counter& MetricRegistry::counter(const std::string& name) {
  auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  check_unique(name, "counter");
  return *counters_.emplace(name, std::make_unique<Counter>()).first->second;
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  check_unique(name, "gauge");
  return *gauges_.emplace(name, std::make_unique<Gauge>()).first->second;
}

Histogram& MetricRegistry::histogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  check_unique(name, "histogram");
  return *histograms_.emplace(name, std::make_unique<Histogram>()).first->second;
}

const Counter* MetricRegistry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricRegistry::find_gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricRegistry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

namespace {

bool in_subtree(std::string_view name, std::string_view prefix) {
  // "engine." means the same subtree as "engine" (the header advertises the
  // trailing-dot form); without this strip it would match nothing, since the
  // boundary check below expects the prefix to end on a name component.
  while (!prefix.empty() && prefix.back() == '.') prefix.remove_suffix(1);
  if (prefix.empty()) return true;
  if (name.size() < prefix.size() || name.substr(0, prefix.size()) != prefix) {
    return false;
  }
  // Component boundary: "engine.shard1" must not absorb "engine.shard10.*".
  return name.size() == prefix.size() || name[prefix.size()] == '.';
}

bool ends_component(std::string_view name, std::string_view suffix) {
  if (suffix.empty()) return true;
  if (name.size() < suffix.size() ||
      name.substr(name.size() - suffix.size()) != suffix) {
    return false;
  }
  return name.size() == suffix.size() ||
         name[name.size() - suffix.size() - 1] == '.';
}

}  // namespace

std::uint64_t MetricRegistry::sum_counters(std::string_view prefix) const {
  return sum_counters(prefix, std::string_view{});
}

std::uint64_t MetricRegistry::sum_counters(std::string_view prefix,
                                           std::string_view suffix) const {
  std::uint64_t total = 0;
  for (const auto& [name, c] : counters_) {
    if (in_subtree(name, prefix) && ends_component(name, suffix)) {
      total += c->value();
    }
  }
  return total;
}

std::string MetricRegistry::to_json() const {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ", ";
    first = false;
    out += json::quote(name) + ": " + std::to_string(c->value());
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ", ";
    first = false;
    out += json::quote(name) + ": " + std::to_string(g->value());
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ", ";
    first = false;
    out += json::quote(name) + ": {\"count\": " +
           std::to_string(h->count()) + ", \"min\": " + std::to_string(h->min()) +
           ", \"max\": " + std::to_string(h->max()) +
           ", \"mean\": " + json::number(h->mean()) +
           ", \"p50\": " + json::number(h->p50()) +
           ", \"p95\": " + json::number(h->p95()) +
           ", \"p99\": " + json::number(h->p99()) + "}";
  }
  out += "}}";
  return out;
}

std::string MetricRegistry::pretty() const {
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += name + " = " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out += name + " = " + std::to_string(g->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += name + ": " + h->summary() + "\n";
  }
  return out;
}

void MetricRegistry::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw ConfigError("MetricRegistry::write_json: cannot open " + path);
  out << to_json() << "\n";
}

void MetricRegistry::reset() {
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

// --- SnapshotWriter. ---

SnapshotWriter::SnapshotWriter(const MetricRegistry& registry,
                               const std::string& path,
                               std::uint64_t every_cycles)
    : registry_(&registry), path_(path), every_cycles_(every_cycles) {
  if (every_cycles == 0) {
    throw ConfigError("SnapshotWriter: cadence must be >= 1 cycle");
  }
  out_.open(path_, std::ios::trunc);
  if (!out_) throw ConfigError("SnapshotWriter: cannot open " + path);
}

bool SnapshotWriter::maybe_write(std::uint64_t cycle) {
  if (cycle < next_deadline_) return false;
  write(cycle);
  next_deadline_ = cycle + every_cycles_;
  return true;
}

void SnapshotWriter::write(std::uint64_t cycle) {
  out_ << "{\"cycle\": " << cycle << ", \"metrics\": " << registry_->to_json()
       << "}\n";
  out_.flush();  // crash-safe: every record reaches the OS before we move on
  ++written_;
}

}  // namespace dspcam::telemetry
