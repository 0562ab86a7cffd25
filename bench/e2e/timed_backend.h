// Bench-local host-time attribution: a CamBackend decorator that times the
// calls a layer above makes into the layer below.
//
// The program under test has no host clock of its own, so per-layer time is
// measured from outside it: one decorator sits between the CamDriver and
// the top backend, and (for engine workloads) one wraps every shard the
// ShardedCamEngine's ShardFactory builds. A layer's self time is its
// decorator's time minus the time of the decorators nested inside it.
//
// step / step_many / try_submit carry the simulated work and are timed.
// try_pop_* and output_horizon run up to ~9 times per cycle and are cheap,
// so they are only counted: a timer around each would cost more than the
// call. Their time lands in the caller's self time.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/fault.h"
#include "src/system/backend.h"

namespace dspcam::bench_e2e {

/// Accumulated host time and call counts for one layer (shared by every
/// decorator of that layer, e.g. all shards of an engine). Not synchronised:
/// the engine must step its shards on one thread (step_threads = 1).
struct LayerClock {
  std::uint64_t busy_ns = 0;        ///< Inside timed calls.
  std::uint64_t steps = 0;          ///< step() calls.
  std::uint64_t windows = 0;        ///< step_many() calls.
  std::uint64_t window_cycles = 0;  ///< Cycles advanced by step_many().
  std::uint64_t rejects = 0;        ///< try_submit() calls that returned false.
  std::uint64_t pops = 0;           ///< try_pop_response/try_pop_ack calls.
  std::uint64_t horizons = 0;       ///< output_horizon() calls.
};

class TimedBackend final : public system::CamBackend {
 public:
  /// Borrows `inner`.
  TimedBackend(system::CamBackend& inner, LayerClock& clock)
      : inner_(&inner), clock_(&clock) {}

  /// Owns `inner` (what a ShardFactory hands the engine).
  TimedBackend(std::unique_ptr<system::CamBackend> inner, LayerClock& clock)
      : owned_(std::move(inner)), inner_(owned_.get()), clock_(&clock) {}

  unsigned data_width() const override { return inner_->data_width(); }
  cam::CamKind kind() const override { return inner_->kind(); }
  unsigned capacity() const override { return inner_->capacity(); }
  unsigned words_per_beat() const override { return inner_->words_per_beat(); }
  unsigned max_keys_per_beat() const override { return inner_->max_keys_per_beat(); }
  unsigned max_groups() const override { return inner_->max_groups(); }
  void configure_groups(unsigned m) override { inner_->configure_groups(m); }

  bool try_submit(cam::UnitRequest request) override {
    const auto t0 = Clock::now();
    const bool ok = inner_->try_submit(std::move(request));
    charge(t0);
    if (!ok) ++clock_->rejects;
    return ok;
  }
  std::optional<cam::UnitResponse> try_pop_response() override {
    ++clock_->pops;
    return inner_->try_pop_response();
  }
  std::optional<cam::UnitUpdateAck> try_pop_ack() override {
    ++clock_->pops;
    return inner_->try_pop_ack();
  }
  bool request_full() const override { return inner_->request_full(); }
  std::size_t pending_requests() const override { return inner_->pending_requests(); }

  void step() override {
    const auto t0 = Clock::now();
    inner_->step();
    charge(t0);
    ++clock_->steps;
  }
  void step_many(std::uint64_t n) override {
    const auto t0 = Clock::now();
    inner_->step_many(n);
    charge(t0);
    ++clock_->windows;
    clock_->window_cycles += n;
  }
  std::uint64_t output_horizon() const override {
    ++clock_->horizons;
    return inner_->output_horizon();
  }
  bool idle() const override { return inner_->idle(); }

  Stats stats() const override { return inner_->stats(); }
  model::ResourceUsage resources() const override { return inner_->resources(); }
  void record_telemetry(telemetry::MetricRegistry& registry,
                        const std::string& prefix) const override {
    inner_->record_telemetry(registry, prefix);
  }
  void set_span_tracer(telemetry::SpanTracer* tracer) override {
    inner_->set_span_tracer(tracer);
  }
  void set_flight_recorder(telemetry::FlightRecorder* recorder) override {
    inner_->set_flight_recorder(recorder);
  }
  void record_counter_tracks(telemetry::SpanTracer& tracer, const std::string& prefix,
                             std::uint64_t cycle) const override {
    inner_->record_counter_tracks(tracer, prefix, cycle);
  }
  fault::FaultTarget* fault_target() override { return inner_->fault_target(); }
  void purge() override { inner_->purge(); }
  std::vector<fault::EntryState> logical_entries() override {
    return inner_->logical_entries();
  }
  std::vector<std::uint64_t> snapshot_cursors() const override {
    return inner_->snapshot_cursors();
  }
  void restore_cursors(const std::vector<std::uint64_t>& cursors) override {
    inner_->restore_cursors(cursors);
  }
  std::string debug_dump() const override { return inner_->debug_dump(); }

 private:
  using Clock = std::chrono::steady_clock;

  void charge(Clock::time_point t0) {
    clock_->busy_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
  }

  std::unique_ptr<system::CamBackend> owned_;
  system::CamBackend* inner_;
  LayerClock* clock_;
};

}  // namespace dspcam::bench_e2e
