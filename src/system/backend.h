// Backend abstraction for the system scaling layer.
//
// Every CAM storage engine in this library - the paper's DSP unit behind its
// bus FIFOs (CamSystem) and the multi-unit ShardedCamEngine - speaks the
// same cycle-stepped submit / poll-response / poll-ack protocol. Hosts, the
// async CamDriver, and the applications (LpmTable, SemiJoin, the TC flow)
// target this interface only, so any backend can be dropped behind any
// consumer: the integration seam that backend-specific APIs ("ad-hoc
// wrapper per CAM family") otherwise turn into a porting project.
//
// Contract:
//  - try_submit() either accepts the whole request or rejects it leaving all
//    state untouched (AXI-stream style; the host retries after step()).
//  - step() advances exactly one clock cycle. Responses/acks become poppable
//    no earlier than the backend's modelled latency allows.
//  - Search responses and update acks each pop in issue order.
//  - kReset clears contents; it produces no ack (poll idle() instead).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/cam/transactions.h"
#include "src/cam/types.h"
#include "src/model/resources.h"

namespace dspcam::fault {
class FaultTarget;   // src/fault/fault.h; backends may expose their storage
using EntryState = cam::EntryState;  // one entry's registered state
}  // namespace dspcam::fault

namespace dspcam::telemetry {
class MetricRegistry;   // src/telemetry/metrics.h
class SpanTracer;       // src/telemetry/span.h
class FlightRecorder;   // src/telemetry/flight_recorder.h
}  // namespace dspcam::telemetry

namespace dspcam::system {

/// Abstract cycle-stepped CAM engine.
class CamBackend {
 public:
  /// Cycle/throughput counters every backend aggregates the same way.
  /// NOTE: operator+= must combine every field (tests/system/backend_test.cc
  /// pins the field-by-field summation) - add new fields to both places.
  struct Stats {
    std::uint64_t cycles = 0;
    std::uint64_t issued = 0;        ///< Requests entering the datapath.
    std::uint64_t stall_cycles = 0;  ///< Cycles a ready request was held back.
    std::uint64_t responses = 0;
    std::uint64_t acks = 0;
    std::uint64_t parity_flagged = 0;  ///< Search results carrying a parity
                                       ///< error flag (src/fault/).
    std::uint64_t keys_searched = 0;   ///< Per-key results delivered.
    std::uint64_t hits = 0;            ///< Delivered results reporting a hit.
    std::uint64_t gated_cycles = 0;    ///< Commit edges skipped by activity
                                       ///< gating (quiescent datapath).

    Stats& operator+=(const Stats& o) {
      cycles = std::max(cycles, o.cycles);  // shards tick in lockstep
      issued += o.issued;
      stall_cycles += o.stall_cycles;
      responses += o.responses;
      acks += o.acks;
      parity_flagged += o.parity_flagged;
      keys_searched += o.keys_searched;
      hits += o.hits;
      gated_cycles += o.gated_cycles;
      return *this;
    }
  };

  virtual ~CamBackend() = default;

  // --- Geometry / capabilities. ---

  /// Stored-entry width in bits.
  virtual unsigned data_width() const = 0;

  /// Cell matching behaviour (binary / ternary / range).
  virtual cam::CamKind kind() const = 0;

  /// Entries the backend can hold (per replicated group for the DSP unit).
  virtual unsigned capacity() const = 0;

  /// Update words accepted per request beat.
  virtual unsigned words_per_beat() const = 0;

  /// Search keys accepted per request beat at the current configuration.
  virtual unsigned max_keys_per_beat() const = 0;

  /// Largest group count configure_groups() accepts (1 = fixed single-group).
  virtual unsigned max_groups() const { return 1; }

  /// Reconfigures multi-query grouping; requires idle, clears contents.
  /// Backends without grouping accept only m == 1.
  virtual void configure_groups(unsigned m) = 0;

  // --- Host-side request/response protocol. ---

  /// Enqueues a request; returns false (dropping nothing) when the backend
  /// cannot accept it this cycle - the host must retry.
  virtual bool try_submit(cam::UnitRequest request) = 0;

  /// Pops the oldest completed search response, if any.
  virtual std::optional<cam::UnitResponse> try_pop_response() = 0;

  /// Pops the oldest update/invalidate acknowledgement, if any.
  virtual std::optional<cam::UnitUpdateAck> try_pop_ack() = 0;

  /// True when try_submit would currently refuse every request.
  virtual bool request_full() const = 0;

  /// Requests accepted but not yet issued into the datapath.
  virtual std::size_t pending_requests() const = 0;

  // --- Clocking. ---

  /// Advances one clock cycle.
  virtual void step() = 0;

  /// Advances `n` clock cycles: exactly step() n times. No library backend
  /// overrides it and no library host calls it; the virtual stays only
  /// because the end-to-end bench's timing decorator
  /// (bench/e2e/timed_backend.h) overrides it.
  virtual void step_many(std::uint64_t n) {
    for (; n > 0; --n) step();
  }

  /// Always 0 ("no bound known"). Kept as a virtual for the same reason as
  /// step_many(): bench/e2e/timed_backend.h overrides it. Nothing in the
  /// library reads it.
  virtual std::uint64_t output_horizon() const { return 0; }

  /// True when nothing is queued or in flight anywhere in the backend.
  virtual bool idle() const = 0;

  // --- Reporting. ---

  virtual Stats stats() const = 0;
  virtual model::ResourceUsage resources() const = 0;

  // --- Telemetry (src/telemetry/). ---

  /// Publishes this backend's state into `registry` under `prefix`
  /// (hierarchical names: "<prefix>.issued", "<prefix>.shard3.credits", ...).
  /// Pull model: the host thread calls this between cycles, so the
  /// backend's own stepping never writes telemetry state. The default
  /// implementation publishes Stats; backends override to add queue depths,
  /// credits and per-shard detail.
  virtual void record_telemetry(telemetry::MetricRegistry& registry,
                                const std::string& prefix) const;

  /// Installs a span tracer for request-level tracing (nullptr detaches).
  /// Backends without internal span points ignore it; the ShardedCamEngine
  /// records dispatch/sub-op/reorder spans for sampled beats.
  virtual void set_span_tracer(telemetry::SpanTracer* tracer) { (void)tracer; }

  /// Installs a flight recorder for rare lifecycle events (quarantine,
  /// rebuild, reshard, checkpoint/restore; nullptr detaches). Backends with
  /// no such events ignore it.
  virtual void set_flight_recorder(telemetry::FlightRecorder* recorder) {
    (void)recorder;
  }

  /// Samples utilization counter series into `tracer` at `cycle` under
  /// `prefix` ("<prefix>.queue_depth", "<prefix>.shard0.inflight", ...).
  /// Pull model like record_telemetry: the host thread calls this at
  /// publish cadence. The default samples the pending-request queue depth;
  /// backends override to add occupancy and per-shard series.
  virtual void record_counter_tracks(telemetry::SpanTracer& tracer,
                                     const std::string& prefix,
                                     std::uint64_t cycle) const;

  // --- Robustness hooks (src/fault/). ---

  /// Flat injection/scrub window over this backend's raw storage, or
  /// nullptr for backends without one. Valid for the backend's lifetime.
  virtual fault::FaultTarget* fault_target() { return nullptr; }

  // --- Checkpoint / restore hooks (src/fault/snapshot.h). ---

  /// Crash-stop: discards every queued request, in-flight operation, and
  /// queued-but-unpopped output, leaving storage and fill cursors untouched.
  /// Used when a shard is quarantined/rebuilt; the base class throws
  /// SimError for backends that cannot purge.
  virtual void purge();

  /// One EntryState per *logical* address in [0, capacity()), in address
  /// order: the contents a reshard redistributes. Unlike the fault_target()
  /// window (which exposes every physical replica), this walks one group
  /// copy in fill order. Throws SimError for backends without the hook.
  virtual std::vector<fault::EntryState> logical_entries();

  /// Opaque host-side fill-cursor state the fault_target() window does not
  /// cover, captured for snapshots. Empty when the backend has none.
  virtual std::vector<std::uint64_t> snapshot_cursors() const { return {}; }

  /// Restores a snapshot_cursors() vector on a same-geometry backend.
  /// The default accepts only an empty vector (SimError otherwise).
  virtual void restore_cursors(const std::vector<std::uint64_t>& cursors);

  /// One-shot diagnostic snapshot (queue occupancies, credits, in-flight
  /// state) for watchdog reports; empty when the backend offers none.
  virtual std::string debug_dump() const { return {}; }
};

}  // namespace dspcam::system
