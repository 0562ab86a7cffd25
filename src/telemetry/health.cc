#include "src/telemetry/health.h"

#include <cmath>

#include "src/common/error.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics.h"

namespace dspcam::telemetry {

const char* HealthMonitor::to_string(State state) {
  return state == State::kTripped ? "tripped" : "ok";
}

HealthMonitor::HealthMonitor(MetricRegistry& registry) : registry_(&registry) {
  m_tripped_ = &registry_->gauge("health.tripped");
  m_evaluations_ = &registry_->counter("health.evaluations");
}

void HealthMonitor::add_rule(const Rule& rule) {
  if (rule.name.empty()) throw ConfigError("HealthMonitor: empty rule name");
  if (rule.metric.empty()) {
    throw ConfigError("HealthMonitor: rule '" + rule.name + "' has no metric");
  }
  if (index_.count(rule.name) != 0) {
    throw ConfigError("HealthMonitor: duplicate rule '" + rule.name + "'");
  }
  // Hysteresis must point the right way: a below-rule clears at or above its
  // trip line, every above-rule clears at or below it. Equal is allowed
  // (no hysteresis band).
  if (rule.predicate == Predicate::kGaugeBelow) {
    if (rule.clear < rule.trip) {
      throw ConfigError("HealthMonitor: rule '" + rule.name +
                        "' clears below its trip threshold");
    }
  } else if (rule.clear > rule.trip) {
    throw ConfigError("HealthMonitor: rule '" + rule.name +
                      "' clears above its trip threshold");
  }
  if (rule.predicate == Predicate::kQuantileAbove &&
      (rule.quantile <= 0.0 || rule.quantile > 1.0)) {
    throw ConfigError("HealthMonitor: rule '" + rule.name +
                      "' quantile must be in (0, 1]");
  }
  RuleState rs;
  rs.rule = rule;
  const std::string base = "health." + rule.name;
  rs.m_state = &registry_->gauge(base + ".state");
  rs.m_trips = &registry_->counter(base + ".trips");
  rs.m_value = &registry_->gauge(base + ".value");
  index_.emplace(rule.name, rules_.size());
  rules_.push_back(std::move(rs));
}

void HealthMonitor::add_default_rules(const DefaultRuleOptions& opts) {
  const std::string& drv = opts.driver_prefix;
  const std::string& eng = opts.engine_prefix;
  const std::string& flt = opts.fault_prefix;
  // Driver stall-headroom collapse: the watchdog's remaining budget fell to
  // a quarter; a trip here is the early warning before the SimError.
  add_rule({.name = "stall_headroom",
            .metric = drv + ".stall_headroom",
            .predicate = Predicate::kGaugeBelow,
            .trip = static_cast<double>(opts.stall_budget) / 4.0,
            .clear = static_cast<double>(opts.stall_budget) / 2.0,
            .severity = Severity::kCritical});
  // Any shard out of service is critical until it clears.
  add_rule({.name = "shard_quarantine",
            .metric = eng + ".quarantined_shards",
            .predicate = Predicate::kGaugeAbove,
            .trip = 0.0,
            .clear = 0.0,
            .severity = Severity::kCritical});
  // Reorder-buffer backlog: completions are parked waiting on a slow or
  // starved shard (credit starvation shows up here first).
  add_rule({.name = "rob_backlog",
            .metric = eng + ".rob.search_depth",
            .predicate = Predicate::kGaugeAbove,
            .trip = opts.rob_backlog_trip,
            .clear = opts.rob_backlog_clear,
            .severity = Severity::kWarn});
  // Parity flags anywhere under the engine subtree mean live bit corruption.
  add_rule({.name = "parity_flags",
            .metric = eng,
            .predicate = Predicate::kSubtreeRateAbove,
            .trip = 0.0,
            .clear = 0.0,
            .severity = Severity::kWarn,
            .suffix = "parity_flagged"});
  // The scrubber repairing a corruption parity never saw is the worst
  // signal in the fault plane.
  add_rule({.name = "scrub_silent",
            .metric = flt + ".scrubber.silent",
            .predicate = Predicate::kCounterRateAbove,
            .trip = 0.0,
            .clear = 0.0,
            .severity = Severity::kCritical});
}

double HealthMonitor::read_value(RuleState& rs, std::uint64_t cycle,
                                 bool& ready) {
  ready = false;
  switch (rs.rule.predicate) {
    case Predicate::kGaugeBelow:
    case Predicate::kGaugeAbove: {
      const Gauge* g = registry_->find_gauge(rs.rule.metric);
      if (g == nullptr) return 0.0;
      ready = true;
      return static_cast<double>(g->value());
    }
    case Predicate::kQuantileAbove: {
      const Histogram* h = registry_->find_histogram(rs.rule.metric);
      if (h == nullptr) return 0.0;
      ready = true;
      return h->quantile(rs.rule.quantile);
    }
    case Predicate::kCounterRateAbove:
    case Predicate::kSubtreeRateAbove: {
      std::uint64_t cur = 0;
      if (rs.rule.predicate == Predicate::kCounterRateAbove) {
        const Counter* c = registry_->find_counter(rs.rule.metric);
        if (c == nullptr) return 0.0;
        cur = c->value();
      } else {
        cur = registry_->sum_counters(rs.rule.metric, rs.rule.suffix);
      }
      // First sight (or a registry reset rewinding the counter) only
      // establishes the baseline; the rate needs a full window.
      if (!rs.has_baseline || cur < rs.baseline) {
        rs.has_baseline = true;
        rs.baseline = cur;
        rs.baseline_cycle = cycle;
        return 0.0;
      }
      if (cycle <= rs.baseline_cycle) return 0.0;  // zero-width window
      const double rate = static_cast<double>(cur - rs.baseline) /
                          static_cast<double>(cycle - rs.baseline_cycle);
      rs.baseline = cur;
      rs.baseline_cycle = cycle;
      ready = true;
      return rate;
    }
  }
  return 0.0;
}

std::vector<HealthMonitor::Transition> HealthMonitor::evaluate(
    std::uint64_t cycle) {
  ++evaluations_;
  m_evaluations_->inc();
  std::vector<Transition> out;
  std::size_t tripped = 0;
  for (RuleState& rs : rules_) {
    bool ready = false;
    const double v = read_value(rs, cycle, ready);
    if (ready) {
      rs.last_value = v;
      rs.m_value->set(static_cast<std::int64_t>(std::llround(v)));
      const bool below = rs.rule.predicate == Predicate::kGaugeBelow;
      const bool trip_now = below ? v < rs.rule.trip : v > rs.rule.trip;
      const bool clear_now = below ? v >= rs.rule.clear : v <= rs.rule.clear;
      if (rs.state == State::kOk && trip_now) {
        rs.state = State::kTripped;
        ++rs.trips;
        rs.m_trips->inc();
        out.push_back({rs.rule.name, State::kOk, State::kTripped, cycle, v,
                       rs.rule.severity});
      } else if (rs.state == State::kTripped && clear_now) {
        rs.state = State::kOk;
        out.push_back({rs.rule.name, State::kTripped, State::kOk, cycle, v,
                       rs.rule.severity});
      }
    }
    rs.m_state->set(rs.state == State::kTripped ? 1 : 0);
    if (rs.state == State::kTripped) ++tripped;
  }
  m_tripped_->set(static_cast<std::int64_t>(tripped));
  return out;
}

const HealthMonitor::RuleState& HealthMonitor::find(
    const std::string& rule) const {
  auto it = index_.find(rule);
  if (it == index_.end()) {
    throw ConfigError("HealthMonitor: unknown rule '" + rule + "'");
  }
  return rules_[it->second];
}

std::vector<std::string> HealthMonitor::rule_names() const {
  std::vector<std::string> out;
  out.reserve(rules_.size());
  for (const RuleState& rs : rules_) out.push_back(rs.rule.name);
  return out;
}

HealthMonitor::State HealthMonitor::state(const std::string& rule) const {
  return find(rule).state;
}

std::uint64_t HealthMonitor::trips(const std::string& rule) const {
  return find(rule).trips;
}

double HealthMonitor::last_value(const std::string& rule) const {
  return find(rule).last_value;
}

std::size_t HealthMonitor::tripped_count() const {
  std::size_t n = 0;
  for (const RuleState& rs : rules_) {
    if (rs.state == State::kTripped) ++n;
  }
  return n;
}

std::string HealthMonitor::to_json() const {
  std::string out = "{\"evaluations\": " + std::to_string(evaluations_) +
                    ", \"tripped\": " + std::to_string(tripped_count()) +
                    ", \"rules\": [";
  bool first = true;
  for (const RuleState& rs : rules_) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\": " + json::quote(rs.rule.name) +
           ", \"metric\": " + json::quote(rs.rule.metric) +
           ", \"severity\": \"" + telemetry::to_string(rs.rule.severity) +
           "\", \"state\": \"" + to_string(rs.state) +
           "\", \"trips\": " + std::to_string(rs.trips) +
           ", \"value\": " + json::number(rs.last_value) + "}";
  }
  out += "]}";
  return out;
}

void HealthMonitor::reset() {
  for (RuleState& rs : rules_) {
    rs.state = State::kOk;
    rs.trips = 0;
    rs.last_value = 0.0;
    rs.has_baseline = false;
    rs.baseline = 0;
    rs.baseline_cycle = 0;
    rs.m_state->set(0);
    rs.m_trips->reset();
    rs.m_value->set(0);
  }
  evaluations_ = 0;
  m_tripped_->set(0);
}

}  // namespace dspcam::telemetry
