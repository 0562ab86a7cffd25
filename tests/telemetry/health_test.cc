// HealthMonitor unit tests: predicates, hysteresis, rate windows, the
// default rule pack, and the published health.* metrics.
#include "src/telemetry/health.h"

#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics.h"

namespace dspcam::telemetry {
namespace {

using State = HealthMonitor::State;
using Predicate = HealthMonitor::Predicate;

HealthMonitor::Rule gauge_below(const std::string& name,
                                const std::string& metric, double trip,
                                double clear) {
  HealthMonitor::Rule r;
  r.name = name;
  r.metric = metric;
  r.predicate = Predicate::kGaugeBelow;
  r.trip = trip;
  r.clear = clear;
  return r;
}

TEST(Health, GaugeBelowTripsAndClearsWithHysteresis) {
  MetricRegistry reg;
  HealthMonitor mon(reg);
  mon.add_rule(gauge_below("headroom", "driver.stall_headroom", 10.0, 20.0));
  auto& g = reg.gauge("driver.stall_headroom");

  g.set(15);  // above trip: ok
  EXPECT_TRUE(mon.evaluate(100).empty());
  EXPECT_EQ(mon.state("headroom"), State::kOk);

  g.set(5);  // below trip
  auto t = mon.evaluate(200);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].rule, "headroom");
  EXPECT_EQ(t[0].to, State::kTripped);
  EXPECT_EQ(t[0].cycle, 200u);
  EXPECT_DOUBLE_EQ(t[0].value, 5.0);
  EXPECT_EQ(mon.trips("headroom"), 1u);

  g.set(15);  // between trip and clear: hysteresis holds the trip
  EXPECT_TRUE(mon.evaluate(300).empty());
  EXPECT_EQ(mon.state("headroom"), State::kTripped);

  g.set(25);  // past clear
  t = mon.evaluate(400);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].to, State::kOk);
  EXPECT_EQ(mon.state("headroom"), State::kOk);
  EXPECT_EQ(mon.trips("headroom"), 1u);  // trips counts trips, not clears
}

TEST(Health, GaugeAbovePredicate) {
  MetricRegistry reg;
  HealthMonitor mon(reg);
  HealthMonitor::Rule r;
  r.name = "quarantine";
  r.metric = "engine.quarantined_shards";
  r.predicate = Predicate::kGaugeAbove;
  r.trip = 0.0;
  r.clear = 0.0;
  mon.add_rule(r);
  auto& g = reg.gauge("engine.quarantined_shards");

  g.set(0);
  mon.evaluate(10);
  EXPECT_EQ(mon.state("quarantine"), State::kOk);
  g.set(1);
  mon.evaluate(20);
  EXPECT_EQ(mon.state("quarantine"), State::kTripped);
  g.set(0);
  mon.evaluate(30);
  EXPECT_EQ(mon.state("quarantine"), State::kOk);
}

TEST(Health, PublishesStateTripsAndValueMetrics) {
  MetricRegistry reg;
  HealthMonitor mon(reg);
  mon.add_rule(gauge_below("rule", "g", 10.0, 20.0));
  reg.gauge("g").set(5);
  mon.evaluate(50);

  const auto* state = reg.find_gauge("health.rule.state");
  const auto* trips = reg.find_counter("health.rule.trips");
  const auto* value = reg.find_gauge("health.rule.value");
  const auto* tripped = reg.find_gauge("health.tripped");
  const auto* evals = reg.find_counter("health.evaluations");
  ASSERT_NE(state, nullptr);
  ASSERT_NE(trips, nullptr);
  ASSERT_NE(value, nullptr);
  ASSERT_NE(tripped, nullptr);
  ASSERT_NE(evals, nullptr);
  EXPECT_EQ(state->value(), 1);
  EXPECT_EQ(trips->value(), 1u);
  EXPECT_EQ(value->value(), 5);
  EXPECT_EQ(tripped->value(), 1);
  EXPECT_EQ(evals->value(), 1u);
}

TEST(Health, CounterRateBaselinesThenMeasuresWindow) {
  MetricRegistry reg;
  HealthMonitor mon(reg);
  HealthMonitor::Rule r;
  r.name = "storm";
  r.metric = "events";
  r.predicate = Predicate::kCounterRateAbove;
  r.trip = 0.5;
  r.clear = 0.1;
  mon.add_rule(r);
  auto& c = reg.counter("events");

  c.add(100);
  // First sight only baselines; no window yet, no trip regardless of value.
  EXPECT_TRUE(mon.evaluate(1000).empty());
  EXPECT_EQ(mon.state("storm"), State::kOk);

  c.add(90);  // 90 events over 100 cycles = 0.9/cycle > 0.5
  auto t = mon.evaluate(1100);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].to, State::kTripped);
  EXPECT_DOUBLE_EQ(t[0].value, 0.9);

  c.add(5);  // 5 over 100 = 0.05 <= 0.1 clears
  t = mon.evaluate(1200);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].to, State::kOk);
}

TEST(Health, ZeroWidthWindowKeepsState) {
  MetricRegistry reg;
  HealthMonitor mon(reg);
  HealthMonitor::Rule r;
  r.name = "rate";
  r.metric = "c";
  r.predicate = Predicate::kCounterRateAbove;
  r.trip = 0.0;
  r.clear = 0.0;
  mon.add_rule(r);
  reg.counter("c").add(10);
  mon.evaluate(100);           // baseline
  reg.counter("c").add(1000);  // huge delta, but the window is zero cycles
  EXPECT_TRUE(mon.evaluate(100).empty());
  EXPECT_EQ(mon.state("rate"), State::kOk);
}

TEST(Health, CounterRewindRebaselinesInsteadOfTripping) {
  MetricRegistry reg;
  HealthMonitor mon(reg);
  HealthMonitor::Rule r;
  r.name = "rate";
  r.metric = "c";
  r.predicate = Predicate::kCounterRateAbove;
  r.trip = 0.0;
  r.clear = 0.0;
  mon.add_rule(r);
  reg.counter("c").add(500);
  mon.evaluate(100);
  reg.reset();  // bench-style reset: counter rewinds below the baseline
  EXPECT_TRUE(mon.evaluate(200).empty());
  EXPECT_EQ(mon.state("rate"), State::kOk);
  // The re-baseline is usable: new growth after the rewind still trips.
  reg.counter("c").add(50);
  auto t = mon.evaluate(300);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].to, State::kTripped);
}

TEST(Health, SubtreeRateSumsOnDotBoundaryWithSuffix) {
  MetricRegistry reg;
  HealthMonitor mon(reg);
  HealthMonitor::Rule r;
  r.name = "parity";
  r.metric = "engine";
  r.suffix = "parity_flagged";
  r.predicate = Predicate::kSubtreeRateAbove;
  r.trip = 0.0;
  r.clear = 0.0;
  mon.add_rule(r);
  reg.counter("engine.shard0.parity_flagged");
  reg.counter("engine.shard1.parity_flagged");
  reg.counter("engine.shard0.issued");           // wrong suffix: excluded
  reg.counter("engines.shard9.parity_flagged");  // wrong subtree: excluded
  mon.evaluate(100);  // baseline at 0

  reg.counter("engine.shard1.parity_flagged").add(3);
  reg.counter("engines.shard9.parity_flagged").add(1000);
  reg.counter("engine.shard0.issued").add(1000);
  auto t = mon.evaluate(200);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t[0].value, 0.03);  // only the 3 in-subtree flags count
}

TEST(Health, QuantileAbovePredicate) {
  MetricRegistry reg;
  HealthMonitor mon(reg);
  HealthMonitor::Rule r;
  r.name = "latency";
  r.metric = "driver.latency_cycles";
  r.predicate = Predicate::kQuantileAbove;
  r.quantile = 0.99;
  r.trip = 100.0;
  r.clear = 50.0;
  mon.add_rule(r);
  auto& h = reg.histogram("driver.latency_cycles");
  for (int i = 0; i < 100; ++i) h.record(7);
  mon.evaluate(10);
  EXPECT_EQ(mon.state("latency"), State::kOk);
  for (int i = 0; i < 100; ++i) h.record(4000);
  mon.evaluate(20);
  EXPECT_EQ(mon.state("latency"), State::kTripped);
}

TEST(Health, MissingMetricIsInert) {
  MetricRegistry reg;
  HealthMonitor mon(reg);
  mon.add_rule(gauge_below("ghost", "does.not.exist", 10.0, 20.0));
  EXPECT_TRUE(mon.evaluate(100).empty());
  EXPECT_EQ(mon.state("ghost"), State::kOk);
}

TEST(Health, AddRuleValidates) {
  MetricRegistry reg;
  HealthMonitor mon(reg);
  HealthMonitor::Rule r;
  r.metric = "m";
  EXPECT_THROW(mon.add_rule(r), ConfigError);  // empty name
  r.name = "a";
  r.metric = "";
  EXPECT_THROW(mon.add_rule(r), ConfigError);  // empty metric
  r.metric = "m";
  mon.add_rule(r);
  EXPECT_THROW(mon.add_rule(r), ConfigError);  // duplicate name
  // Inverted hysteresis: kGaugeBelow needs clear >= trip.
  EXPECT_THROW(mon.add_rule(gauge_below("b", "m", 20.0, 10.0)), ConfigError);
  // kGaugeAbove (and rates) need clear <= trip.
  HealthMonitor::Rule above;
  above.name = "c";
  above.metric = "m";
  above.predicate = Predicate::kGaugeAbove;
  above.trip = 10.0;
  above.clear = 20.0;
  EXPECT_THROW(mon.add_rule(above), ConfigError);
  HealthMonitor::Rule q;
  q.name = "d";
  q.metric = "m";
  q.predicate = Predicate::kQuantileAbove;
  q.quantile = 0.0;
  EXPECT_THROW(mon.add_rule(q), ConfigError);
}

TEST(Health, DefaultRulePackCoversTheFailureSurfaces) {
  MetricRegistry reg;
  HealthMonitor mon(reg);
  mon.add_default_rules();
  EXPECT_EQ(mon.rule_count(), 5u);
  const auto names = mon.rule_names();
  for (const char* expected :
       {"stall_headroom", "shard_quarantine", "rob_backlog", "parity_flags",
        "scrub_silent"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  // Against an empty registry every rule is inert.
  EXPECT_TRUE(mon.evaluate(100).empty());
  EXPECT_EQ(mon.tripped_count(), 0u);
}

TEST(Health, ToJsonIsValidAndListsRules) {
  MetricRegistry reg;
  HealthMonitor mon(reg);
  mon.add_default_rules();
  reg.gauge("engine.quarantined_shards").set(2);
  mon.evaluate(64);
  const std::string json = mon.to_json();
  EXPECT_TRUE(json::parse(json).ok) << json;
  EXPECT_NE(json.find("\"shard_quarantine\""), std::string::npos);
  EXPECT_NE(json.find("\"tripped\": 1"), std::string::npos);
}

TEST(Health, ResetClearsStatesAndBaselines) {
  MetricRegistry reg;
  HealthMonitor mon(reg);
  mon.add_rule(gauge_below("rule", "g", 10.0, 20.0));
  reg.gauge("g").set(5);
  mon.evaluate(100);
  EXPECT_EQ(mon.state("rule"), State::kTripped);
  mon.reset();
  EXPECT_EQ(mon.state("rule"), State::kOk);
  EXPECT_EQ(mon.trips("rule"), 0u);
  EXPECT_EQ(mon.evaluations(), 0u);
}

TEST(Health, UnknownRuleThrows) {
  MetricRegistry reg;
  HealthMonitor mon(reg);
  EXPECT_THROW(mon.state("nope"), ConfigError);
}

}  // namespace
}  // namespace dspcam::telemetry
