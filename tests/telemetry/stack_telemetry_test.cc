// Telemetry wired through the live stack: driver + sharded engine + fault
// layer. Pins the two load-bearing guarantees:
//
//  1. Determinism: counters are byte-identical across eval modes (fast vs
//     reference lockstep).
//  2. The span waterfall actually materialises: sampled tickets produce
//     driver / engine / shard spans that export as valid Chrome JSON.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/common/random.h"
#include "src/sim/stats.h"
#include "src/system/driver.h"
#include "src/system/sharded_engine.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"

namespace dspcam::system {
namespace {

CamSystem::Config shard_config(cam::EvalMode mode = cam::EvalMode::kFast) {
  CamSystem::Config cfg;
  cfg.unit.block.cell.data_width = 32;
  cfg.unit.block.block_size = 16;
  cfg.unit.block.bus_width = 128;
  cfg.unit.eval_mode = mode;
  cfg.unit.unit_size = 4;
  cfg.unit.bus_width = 128;
  return cfg;
}

/// Mixed store/search workload through the async driver with telemetry
/// attached; returns the registry's full JSON dump after a final publish.
std::string run_workload(unsigned shards, cam::EvalMode mode,
                         telemetry::SpanTracer* tracer = nullptr) {
  ShardedCamEngine::Config ec;
  ec.shards = shards;
  ec.credits_per_shard = 32;
  ShardedCamEngine engine(ec, shard_config(mode));
  CamDriver drv(engine);

  telemetry::MetricRegistry registry;
  drv.attach_telemetry(&registry, tracer, /*snapshot_every=*/16);

  Rng rng(99);
  std::vector<cam::Word> words(48);
  for (auto& w : words) w = rng.next_bits(16);
  drv.store(words);

  for (unsigned i = 0; i < 200; ++i) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    req.keys = {words[i % words.size()]};
    drv.submit_async(std::move(req));
    drv.poll();
  }
  drv.drain();
  while (drv.try_pop_completion()) {
  }
  drv.publish_telemetry();
  return registry.to_json();
}

TEST(StackTelemetry, CountersIdenticalAcrossEvalModes) {
  // Fast vs reference evaluation is cycle-lockstep, so with the
  // fast_mode / kernel-name gauges excluded (the metrics that are meant to
  // differ: the mode flag and the selected match kernel's label) every
  // published metric must agree.
  std::string fast = run_workload(2, cam::EvalMode::kFast);
  std::string ref = run_workload(2, cam::EvalMode::kReference);
  EXPECT_TRUE(telemetry::json::parse(fast).ok);
  // Remove every "...<token>...": <value> entry. Values are scalars or flat
  // objects (histogram summaries); the separator swallowed is the trailing
  // comma when one exists, else the preceding one (last entry of its map -
  // the maps always keep at least one unstripped metric).
  const auto strip = [](std::string& json) {
    for (const char* token : {"fast_mode", ".kernel."}) {
      for (std::string::size_type p;
           (p = json.find(token)) != std::string::npos;) {
        const auto start = json.rfind('"', p);
        const auto key_end = json.find('"', p);
        auto v = json.find(':', key_end) + 1;
        while (v < json.size() && json[v] == ' ') ++v;
        const auto vend = json[v] == '{' ? json.find('}', v)
                                         : json.find_first_of(",}", v) - 1;
        if (vend + 1 < json.size() && json[vend + 1] == ',') {
          json.erase(start, vend + 2 - start);
        } else {
          const auto sep = json.rfind(',', start);
          json.erase(sep, vend + 1 - sep);
        }
      }
    }
  };
  strip(fast);
  strip(ref);
  EXPECT_EQ(fast, ref);
}

TEST(StackTelemetry, DriverTracesOnlyTicketsSubmittedWhileAttached) {
  // The driver records a ticket's latency when the ticket was submitted
  // and completed with a registry attached. Tickets submitted before the
  // attach, or completing while detached, are never recorded, and a
  // re-attach after a detach traces the new tickets from scratch.
  ShardedCamEngine::Config ec;
  ec.shards = 2;
  ShardedCamEngine engine(ec, shard_config());
  CamDriver drv(engine);
  telemetry::MetricRegistry registry;
  const auto submit = [&](unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      cam::UnitRequest req;
      req.op = cam::OpKind::kSearch;
      req.keys = {cam::Word{i}};
      drv.submit_async(std::move(req));
    }
  };

  submit(2);  // in flight at attach: untraced
  drv.attach_telemetry(&registry);
  submit(8);
  drv.drain();
  submit(4);  // traced, then completes while detached
  drv.attach_telemetry(nullptr);
  drv.drain();
  submit(5);  // submitted while detached
  drv.drain();
  drv.attach_telemetry(&registry);
  submit(3);
  drv.drain();

  EXPECT_EQ(registry.find_counter("driver.submitted")->value(), 15u);
  EXPECT_EQ(registry.find_counter("driver.completed")->value(), 11u);
  EXPECT_EQ(registry.find_histogram("driver.latency_cycles")->count(), 11u);
}

TEST(StackTelemetry, DriverPublishesLatencyPercentilesAndEngineDetail) {
  ShardedCamEngine::Config ec;
  ec.shards = 2;
  ShardedCamEngine engine(ec, shard_config());
  CamDriver drv(engine);
  telemetry::MetricRegistry registry;
  drv.attach_telemetry(&registry);

  // One store beat (the 2-shard engine takes all 8 words in one beat).
  drv.store(std::vector<cam::Word>{1, 2, 3, 4, 5, 6, 7, 8});
  for (unsigned i = 0; i < 32; ++i) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    req.keys = {cam::Word{1 + i % 8}};
    drv.submit_async(std::move(req));
    drv.poll();
  }
  drv.drain();
  drv.publish_telemetry();

  const auto* lat = registry.find_histogram("driver.latency_cycles");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 33u);  // 1 store beat + 32 searches
  EXPECT_GT(lat->p50(), 0.0);
  EXPECT_LE(lat->p50(), lat->p99());
  EXPECT_EQ(registry.find_histogram("driver.search_latency_cycles")->count(), 32u);

  // Driver counters agree with each other and with the engine's view.
  EXPECT_EQ(registry.find_counter("driver.submitted")->value(), 33u);
  EXPECT_EQ(registry.find_counter("driver.completed")->value(), 33u);
  EXPECT_EQ(registry.find_counter("engine.responses")->value(), 32u);
  EXPECT_EQ(registry.find_counter("engine.keys_searched")->value(), 32u);
  EXPECT_EQ(registry.find_counter("engine.hits")->value(), 32u);

  // Per-shard detail exists and the subtree aggregation covers both shards.
  EXPECT_NE(registry.find_gauge("engine.shard0.credits"), nullptr);
  EXPECT_NE(registry.find_gauge("engine.shard1.credits"), nullptr);
  EXPECT_EQ(registry.sum_counters("engine.shard0.responses") +
                registry.sum_counters("engine.shard1.responses"),
            32u);

  // Stall headroom gauge was maintained by drain().
  const auto* headroom = registry.find_gauge("driver.stall_headroom");
  ASSERT_NE(headroom, nullptr);
  EXPECT_GT(headroom->value(), 0);
}

TEST(StackTelemetry, SampledTicketsProduceTheFullSpanWaterfall) {
  telemetry::SpanTracer::Config tcfg;
  tcfg.sample_every = 1;  // trace everything
  telemetry::SpanTracer tracer(tcfg);
  run_workload(2, cam::EvalMode::kFast, &tracer);

  EXPECT_EQ(tracer.open_count(), 0u);  // drained run leaves nothing open
  bool saw_ticket = false, saw_queue = false, saw_beat = false, saw_sub = false;
  std::uint64_t shard_tracks = 0;
  for (const auto& span : tracer.finished_spans()) {
    EXPECT_GE(span.end, span.start);
    saw_ticket |= span.name == "ticket.search";
    saw_queue |= span.name == "queue.wait";
    saw_beat |= span.name == "beat.search";
    if (span.name == "sub.search") {
      saw_sub = true;
      EXPECT_GE(span.track, 16u);  // shard tracks start at 16
      shard_tracks |= std::uint64_t{1} << (span.track - 16);
    }
  }
  EXPECT_TRUE(saw_ticket);
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_beat);
  EXPECT_TRUE(saw_sub);
  EXPECT_EQ(shard_tracks, 0b11u);  // both shards saw sub-operations

  const std::string json = tracer.chrome_json();
  EXPECT_TRUE(telemetry::json::parse(json).ok);
  EXPECT_NE(json.find("shard1"), std::string::npos);  // named tracks
}

TEST(StackTelemetry, QuarantineEventsReachTheRegistry) {
  ShardedCamEngine::Config ec;
  ec.shards = 2;
  ShardedCamEngine engine(ec, shard_config());
  telemetry::MetricRegistry registry;

  engine.record_telemetry(registry, "engine");
  EXPECT_EQ(registry.find_counter("engine.quarantine_events")->value(), 0u);

  engine.quarantine_shard(1);
  engine.quarantine_shard(1);  // idempotent: still one event
  engine.record_telemetry(registry, "engine");
  EXPECT_EQ(registry.find_counter("engine.quarantine_events")->value(), 1u);
  EXPECT_EQ(registry.find_gauge("engine.quarantined_shards")->value(), 1);
  EXPECT_EQ(registry.find_gauge("engine.shard1.quarantined")->value(), 1);
  EXPECT_EQ(registry.find_gauge("engine.shard0.quarantined")->value(), 0);
}

TEST(StackTelemetry, FaultStatsPublishUnderTheirPrefix) {
  sim::FaultStats fs;
  fs.injected = 5;
  fs.detected = 4;
  fs.corrected = 3;
  fs.silent = 1;
  telemetry::MetricRegistry registry;
  fs.record_telemetry(registry, "fault.injector");
  fs.record_telemetry(registry, "fault.injector");  // idempotent re-publish
  EXPECT_EQ(registry.find_counter("fault.injector.injected")->value(), 5u);
  EXPECT_EQ(registry.find_counter("fault.injector.detected")->value(), 4u);
  EXPECT_EQ(registry.find_counter("fault.injector.corrected")->value(), 3u);
  EXPECT_EQ(registry.find_counter("fault.injector.silent")->value(), 1u);
  EXPECT_EQ(registry.sum_counters("fault"), 13u);
}

TEST(StackTelemetry, AttachRejectsZeroSnapshotCadence) {
  CamDriver drv(CamSystem::Config{shard_config()});
  telemetry::MetricRegistry registry;
  EXPECT_THROW(drv.attach_telemetry(&registry, nullptr, 0), ConfigError);
}

}  // namespace
}  // namespace dspcam::system
