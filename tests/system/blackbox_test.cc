// Health plane + flight recorder wired through the live stack.
//
// Pins the PR's acceptance guarantees:
//  1. A forced watchdog trip auto-writes a validating black box containing
//     the triggering event, the stall-headroom health transition, and the
//     final metric snapshot.
//  2. A forced quarantine dump carries the quarantine event and the
//     shard_quarantine trip/clear transitions.
//  3. The recorded history and health states are byte-identical across
//     eval modes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/common/random.h"
#include "src/fault/injector.h"
#include "src/fault/scrubber.h"
#include "src/system/driver.h"
#include "src/system/sharded_engine.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/health.h"
#include "src/telemetry/jsonv.h"
#include "src/telemetry/metrics.h"

namespace dspcam::system {
namespace {

CamSystem::Config shard_config(cam::EvalMode mode) {
  CamSystem::Config cfg;
  cfg.unit.block.cell.data_width = 32;
  cfg.unit.block.block_size = 16;
  cfg.unit.block.bus_width = 128;
  cfg.unit.block.eval_mode = mode;
  cfg.unit.block.parity = true;
  cfg.unit.unit_size = 4;
  cfg.unit.bus_width = 128;
  return cfg;
}

/// Health rules that read only metrics published identically in every eval
/// mode (no kernel/fast_mode surfaces), so dumps can be compared
/// byte-for-byte across modes too.
void add_mode_invariant_rules(telemetry::HealthMonitor& mon,
                              std::uint64_t stall_budget) {
  telemetry::HealthMonitor::Rule r;
  r.name = "stall_headroom";
  r.metric = "driver.stall_headroom";
  r.predicate = telemetry::HealthMonitor::Predicate::kGaugeBelow;
  r.trip = static_cast<double>(stall_budget / 4);
  r.clear = static_cast<double>(stall_budget / 2);
  r.severity = telemetry::Severity::kCritical;
  mon.add_rule(r);
  r = {};
  r.name = "shard_quarantine";
  r.metric = "engine.quarantined_shards";
  r.predicate = telemetry::HealthMonitor::Predicate::kGaugeAbove;
  r.trip = 0.0;
  r.clear = 0.0;
  r.severity = telemetry::Severity::kCritical;
  mon.add_rule(r);
  r = {};
  r.name = "parity_flags";
  r.metric = "engine";
  r.suffix = "parity_flagged";
  r.predicate = telemetry::HealthMonitor::Predicate::kSubtreeRateAbove;
  r.trip = 0.0;
  r.clear = 0.0;
  mon.add_rule(r);
}

struct RunArtifacts {
  std::string full_dump;    ///< events + health + metrics (dump_blackbox)
  std::string events_dump;  ///< events + health only (mode-comparable)
  std::uint64_t cycles = 0;
};

/// Search workload with a mid-run fault drill: a quiesced burst injection,
/// a scrub pass, and a quarantine/rebuild round trip. Every recorder event
/// and health transition lands at a schedule-invariant cycle.
RunArtifacts run_observed_workload(cam::EvalMode mode) {
  ShardedCamEngine::Config ec;
  ec.shards = 4;
  ec.credits_per_shard = 32;
  ShardedCamEngine engine(ec, shard_config(mode));
  CamDriver drv(engine);

  telemetry::MetricRegistry registry;
  telemetry::HealthMonitor health(registry);
  add_mode_invariant_rules(health, drv.stall_budget());
  telemetry::FlightRecorder recorder;
  drv.attach_telemetry(&registry, nullptr, /*snapshot_every=*/16);
  drv.attach_health(&health);
  drv.attach_flight_recorder(&recorder);

  fault::FaultCampaign campaign;
  campaign.seed = 11;
  campaign.burst_size = 6;
  fault::FaultInjector injector(*engine.fault_target(), campaign);
  fault::Scrubber scrubber(*engine.fault_target(), {/*entries_per_cycle=*/1});
  injector.set_flight_recorder(&recorder);
  scrubber.set_flight_recorder(&recorder);

  Rng rng(99);
  std::vector<cam::Word> words(48);
  for (auto& w : words) w = rng.next_bits(16);
  drv.store(words);
  scrubber.capture();

  const auto stream = [&](unsigned count) {
    for (unsigned i = 0; i < count; ++i) {
      cam::UnitRequest req;
      req.op = cam::OpKind::kSearch;
      req.keys = {words[i % words.size()]};
      drv.submit_async(std::move(req));
      drv.poll();
    }
    drv.drain();
    while (drv.try_pop_completion()) {
    }
  };

  stream(100);
  // Fault drill at a quiesced point: burst-flip, scrub (silent repairs
  // record events), then a quarantine/rebuild round trip (trip + clear).
  injector.inject();
  scrubber.scrub_all();
  engine.quarantine_shard(2);
  drv.publish_telemetry();
  engine.rebuild_shard(2, scrubber);
  drv.publish_telemetry();
  stream(100);

  RunArtifacts out;
  out.cycles = drv.cycles();
  out.full_dump = drv.dump_blackbox("determinism probe");
  out.events_dump = recorder.dump_json(drv.cycles(), "determinism probe",
                                       nullptr, nullptr, &health);
  return out;
}

TEST(Blackbox, RecorderAndHealthIdenticalAcrossEvalModes) {
  const auto fast = run_observed_workload(cam::EvalMode::kFast);
  const auto ref = run_observed_workload(cam::EvalMode::kReference);
  EXPECT_EQ(fast.cycles, ref.cycles);
  EXPECT_EQ(fast.events_dump, ref.events_dump);
}

TEST(Blackbox, QuarantineDumpCarriesEventTransitionAndMetrics) {
  const auto run = run_observed_workload(cam::EvalMode::kFast);
  EXPECT_TRUE(telemetry::jsonv::validate(run.full_dump).ok) << run.full_dump;
  // The triggering event...
  EXPECT_NE(run.full_dump.find("\"kind\": \"quarantine\""), std::string::npos);
  EXPECT_NE(run.full_dump.find("\"kind\": \"rebuild\""), std::string::npos);
  EXPECT_NE(run.full_dump.find("\"kind\": \"fault_poke\""), std::string::npos);
  // ...the health transition pair...
  EXPECT_NE(
      run.full_dump.find("health rule 'shard_quarantine' tripped"),
      std::string::npos);
  EXPECT_NE(
      run.full_dump.find("health rule 'shard_quarantine' cleared"),
      std::string::npos);
  // ...and the metric snapshot.
  EXPECT_NE(run.full_dump.find("\"counters\""), std::string::npos);
  EXPECT_NE(run.full_dump.find("\"engine.quarantine_events\": 1"),
            std::string::npos);
}

/// Backend that accepts every request and never completes one.
class WedgedBackend : public CamBackend {
 public:
  unsigned data_width() const override { return 32; }
  cam::CamKind kind() const override { return cam::CamKind::kBinary; }
  unsigned capacity() const override { return 16; }
  unsigned words_per_beat() const override { return 1; }
  unsigned max_keys_per_beat() const override { return 1; }
  void configure_groups(unsigned m) override {
    if (m != 1) throw ConfigError("WedgedBackend: no groups");
  }
  bool try_submit(cam::UnitRequest) override {
    ++swallowed_;
    return true;
  }
  std::optional<cam::UnitResponse> try_pop_response() override {
    return std::nullopt;
  }
  std::optional<cam::UnitUpdateAck> try_pop_ack() override {
    return std::nullopt;
  }
  bool request_full() const override { return false; }
  std::size_t pending_requests() const override { return swallowed_; }
  void step() override { ++stats_.cycles; }
  bool idle() const override { return swallowed_ == 0; }
  Stats stats() const override { return stats_; }
  model::ResourceUsage resources() const override { return {}; }
  std::string debug_dump() const override { return "wedged"; }

 private:
  std::size_t swallowed_ = 0;
  Stats stats_;
};

TEST(Blackbox, WatchdogTripAutoWritesTheBlackBox) {
  WedgedBackend backend;
  CamDriver drv(backend);
  drv.set_stall_budget(256);

  telemetry::MetricRegistry registry;
  telemetry::HealthMonitor health(registry);
  telemetry::HealthMonitor::DefaultRuleOptions hopts;
  hopts.stall_budget = drv.stall_budget();
  health.add_default_rules(hopts);
  telemetry::FlightRecorder recorder;
  const std::string path = ::testing::TempDir() + "watchdog_blackbox.json";
  std::remove(path.c_str());
  drv.attach_telemetry(&registry, nullptr, /*snapshot_every=*/16);
  drv.attach_health(&health);
  drv.attach_flight_recorder(&recorder, path);

  cam::UnitRequest req;
  req.op = cam::OpKind::kSearch;
  req.keys = {cam::Word{1}};
  drv.submit_async(std::move(req));
  EXPECT_THROW(drv.drain(), SimError);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "watchdog did not write " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string dump = ss.str();
  EXPECT_TRUE(telemetry::jsonv::validate(dump).ok) << dump;
  // Triggering event + health transition + metric snapshot, all aboard.
  EXPECT_NE(dump.find("\"kind\": \"watchdog_trip\""), std::string::npos);
  EXPECT_NE(dump.find("health rule 'stall_headroom' tripped"),
            std::string::npos);
  EXPECT_NE(dump.find("\"driver.stall_headroom\": 0"), std::string::npos);
  EXPECT_NE(dump.find("\"counters\""), std::string::npos);
  EXPECT_EQ(health.state("stall_headroom"),
            telemetry::HealthMonitor::State::kTripped);
  std::remove(path.c_str());
}

TEST(Blackbox, ExplicitDumpRequiresARecorder) {
  WedgedBackend backend;
  CamDriver drv(backend);
  EXPECT_THROW(drv.dump_blackbox("no recorder attached"), ConfigError);
}

TEST(Blackbox, AttachHealthRequiresTheAttachedRegistry) {
  WedgedBackend backend;
  CamDriver drv(backend);
  telemetry::MetricRegistry registry;
  telemetry::HealthMonitor health(registry);
  // No registry attached to the driver yet.
  EXPECT_THROW(drv.attach_health(&health), ConfigError);
  telemetry::MetricRegistry other;
  drv.attach_telemetry(&other);
  // Monitor publishes into a different registry than the driver's.
  EXPECT_THROW(drv.attach_health(&health), ConfigError);
}

}  // namespace
}  // namespace dspcam::system
