// HealthMonitor: declarative SLO rules evaluated over the MetricRegistry.
//
// PR 4's telemetry is passive - counters and gauges accumulate but nothing
// watches them. The health monitor closes that loop: each rule names one
// metric (or a counter subtree) and a predicate - gauge threshold, counter
// rate over the rolling window between evaluations, or histogram
// percentile - plus *hysteresis*: a trip threshold and a separate clear
// threshold, so a value hovering near the line does not flap the rule. Each
// rule carries a severity and publishes its own state back into the same
// registry (`health.<rule>.state` 0/1 gauge, `health.<rule>.trips` counter,
// `health.<rule>.value` last observed value) so snapshots, dashboards
// (tools/camtop) and black-box dumps all see rule state for free.
//
// Determinism contract: evaluate() runs on the simulation's thread at the
// driver's snapshot cadence, consumes only registry state (which is
// byte-identical across runs and eval modes), and measures windows in
// simulation cycles - so rule transitions land on the same simulated cycle
// whatever the host's timing. Rules whose metric
// does not exist yet are inert (state stays ok) rather than an error, so one
// default rule pack works against any backend mix.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/telemetry/flight_recorder.h"  // Severity

namespace dspcam::telemetry {

class MetricRegistry;
class Counter;
class Gauge;

/// Declarative trip/clear rules over a MetricRegistry.
class HealthMonitor {
 public:
  enum class State { kOk = 0, kTripped = 1 };
  static const char* to_string(State state);

  enum class Predicate {
    kGaugeBelow,        ///< Trip when gauge < trip; clear when >= clear.
    kGaugeAbove,        ///< Trip when gauge > trip; clear when <= clear.
    kCounterRateAbove,  ///< Trip when counter delta / cycle window > trip.
    kSubtreeRateAbove,  ///< Like kCounterRateAbove over sum_counters(metric,
                        ///< suffix): every counter under the subtree whose
                        ///< leaf path ends in `suffix`.
    kQuantileAbove,     ///< Trip when histogram quantile(q) > trip.
  };

  struct Rule {
    std::string name;    ///< Unique rule id; metric-safe (published under
                         ///< "health.<name>.*").
    std::string metric;  ///< Metric name, or subtree prefix for
                         ///< kSubtreeRateAbove.
    Predicate predicate = Predicate::kGaugeAbove;
    double trip = 0.0;   ///< Crossing this trips the rule.
    double clear = 0.0;  ///< Recovering past this clears it (hysteresis).
    Severity severity = Severity::kWarn;
    double quantile = 0.99;  ///< kQuantileAbove only; in (0, 1].
    std::string suffix;      ///< kSubtreeRateAbove only; may be empty
                             ///< (whole subtree).
  };

  /// One state change observed by evaluate().
  struct Transition {
    std::string rule;
    State from = State::kOk;
    State to = State::kOk;
    std::uint64_t cycle = 0;
    double value = 0.0;  ///< The value that caused the transition.
    Severity severity = Severity::kWarn;
  };

  /// Tuning for add_default_rules(); defaults match the stock driver/engine
  /// metric names and a "worry when it is real" threshold posture.
  struct DefaultRuleOptions {
    std::string driver_prefix = "driver";
    std::string engine_prefix = "engine";
    std::string fault_prefix = "fault";
    /// The driver's stall budget; the stall rule trips below budget/4 and
    /// clears at budget/2.
    std::uint64_t stall_budget = std::uint64_t{1} << 20;
    double rob_backlog_trip = 512.0;
    double rob_backlog_clear = 64.0;
  };

  /// Rules publish their state into `registry`; it must outlive the monitor.
  explicit HealthMonitor(MetricRegistry& registry);

  MetricRegistry& registry() const noexcept { return *registry_; }

  /// Registers a rule. Throws ConfigError on empty/duplicate name, empty
  /// metric, inverted hysteresis (clear on the wrong side of trip), or a
  /// quantile outside (0, 1].
  void add_rule(const Rule& rule);

  /// The stock pack covering the known failure surfaces: stall_headroom,
  /// shard_quarantine, rob_backlog, parity_flags, scrub_silent.
  void add_default_rules(const DefaultRuleOptions& opts);
  void add_default_rules() { add_default_rules(DefaultRuleOptions{}); }

  /// Evaluates every rule against the registry at `cycle`; returns the
  /// transitions that happened (empty almost always). Rate rules use the
  /// window since their previous evaluation; a rule whose metric is missing
  /// (or whose rate window is zero cycles) keeps its state.
  std::vector<Transition> evaluate(std::uint64_t cycle);

  // --- Introspection. ---

  std::size_t rule_count() const noexcept { return rules_.size(); }
  std::vector<std::string> rule_names() const;
  /// Throw ConfigError for an unknown rule name.
  State state(const std::string& rule) const;
  std::uint64_t trips(const std::string& rule) const;
  double last_value(const std::string& rule) const;
  std::size_t tripped_count() const;
  std::uint64_t evaluations() const noexcept { return evaluations_; }

  /// {"evaluations": N, "tripped": T, "rules": [{name, metric, severity,
  /// state, trips, value}, ...]} in rule registration order.
  std::string to_json() const;

  /// Clears all rule states, baselines and trip counts (rules stay
  /// registered; published trip counters reset via Counter::reset). For
  /// bench loops that reset the registry between repetitions.
  void reset();

 private:
  struct RuleState {
    Rule rule;
    State state = State::kOk;
    std::uint64_t trips = 0;
    double last_value = 0.0;
    bool has_baseline = false;     ///< Rate rules: first sample taken.
    std::uint64_t baseline = 0;    ///< Counter value at last evaluation.
    std::uint64_t baseline_cycle = 0;
    Gauge* m_state = nullptr;
    Counter* m_trips = nullptr;
    Gauge* m_value = nullptr;
  };

  /// Reads the rule's current value; `ready` is false when the metric is
  /// absent or a rate window has not opened yet.
  double read_value(RuleState& rs, std::uint64_t cycle, bool& ready);

  const RuleState& find(const std::string& rule) const;

  MetricRegistry* registry_;
  std::vector<RuleState> rules_;            ///< Registration order.
  std::map<std::string, std::size_t> index_;
  std::uint64_t evaluations_ = 0;
  Gauge* m_tripped_ = nullptr;
  Counter* m_evaluations_ = nullptr;
};

}  // namespace dspcam::telemetry
