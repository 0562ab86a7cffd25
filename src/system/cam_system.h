// System wrapper: the CAM unit behind its bus interfaces (paper Fig. 4's
// "input and output interfaces that communicate with the user kernel").
//
// The cycle-accurate CamUnit is a raw pipeline: one beat per cycle in, fixed
// latency out, no flow control. Real integrations (and the paper's own
// maximum build) wrap it in interface FIFOs - the "4 BRAMs ... utilized by
// the bus interfaces for FIFOs, which we add to facilitate complete
// synthesis and implementation" of Table I. CamSystem models exactly that:
//
//   host -> request FIFO -> CamUnit -> {response FIFO, ack FIFO} -> host
//
// with credit-based backpressure: a request is only popped into the unit
// when the matching output FIFO is guaranteed to have room for its result
// once it emerges (the unit itself cannot stall mid-pipeline).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "src/cam/unit.h"
#include "src/fault/targets.h"
#include "src/model/resources.h"
#include "src/sim/fifo.h"
#include "src/system/backend.h"
#include "src/telemetry/metrics.h"

namespace dspcam::system {

/// The CAM unit plus its bus-interface FIFOs.
class CamSystem : public CamBackend {
 public:
  struct Config {
    cam::UnitConfig unit;
    std::size_t request_fifo_depth = 64;
    std::size_t response_fifo_depth = 64;
    std::size_t ack_fifo_depth = 64;
  };

  explicit CamSystem(const Config& cfg);

  const Config& config() const noexcept { return cfg_; }
  cam::CamUnit& unit() noexcept { return unit_; }
  const cam::CamUnit& unit() const noexcept { return unit_; }

  // --- Host side (call any time; takes effect at the next clock edge). ---

  /// Enqueues a request; returns false (and drops nothing) when the request
  /// FIFO is full - the host must retry, exactly like a full AXI stream.
  bool try_submit(cam::UnitRequest request) override;

  /// Pops the oldest completed search response, if any.
  std::optional<cam::UnitResponse> try_pop_response() override;

  /// Pops the oldest update acknowledgement, if any.
  std::optional<cam::UnitUpdateAck> try_pop_ack() override;

  /// Either output FIFO holds something.
  bool has_output() const override {
    return !response_fifo_.empty() || !ack_fifo_.empty();
  }

  bool request_fifo_full() const noexcept { return request_fifo_.full(); }
  bool request_full() const override { return request_fifo_.full(); }
  std::size_t pending_requests() const override { return request_fifo_.size(); }

  // --- CamBackend geometry / clocking. ---

  unsigned data_width() const override { return cfg_.unit.block.cell.data_width; }
  cam::CamKind kind() const override { return cfg_.unit.block.cell.kind; }
  unsigned capacity() const override { return unit_.capacity_per_group(); }
  unsigned words_per_beat() const override { return cfg_.unit.words_per_beat(); }
  unsigned max_keys_per_beat() const override { return unit_.groups(); }
  unsigned max_groups() const override { return cfg_.unit.unit_size; }

  /// Forwards to the unit; requires the whole system to be idle.
  void configure_groups(unsigned m) override;

  /// One clock cycle (eval + commit). With an empty request FIFO and no
  /// beat due in the unit it is O(1): nothing issues, the unit's edge only
  /// advances its counter, and no output appears.
  void step() override {
    if (!request_fifo_.empty()) eval();
    commit();
  }

  /// No queued requests and nothing in the unit's pipelines.
  bool idle() const override { return request_fifo_.empty() && unit_.idle(); }

  /// Always 1: every search is one compare per group plane. Multi-key
  /// match fusion is gone (DESIGN.md §11); this stays only because the
  /// frozen bench/e2e sources read it into their provenance.
  std::size_t fusion_width() const noexcept { return 1; }

  // --- Statistics. ---

  Stats stats() const override { return stats_; }

  /// Full-system resource estimate: the unit plus the interface FIFOs
  /// (Table I's system row).
  model::ResourceUsage resources() const override;

  /// Stats plus interface-FIFO depths, in-flight credits, block occupancy,
  /// the active eval mode ("<prefix>.fast_mode") and the selected match
  /// kernel as a label gauge ("<prefix>.kernel.<name>" = 1).
  void record_telemetry(telemetry::MetricRegistry& registry,
                        const std::string& prefix) const override;

  /// Utilization series: request-FIFO depth and active-block occupancy.
  void record_counter_tracks(telemetry::SpanTracer& tracer,
                             const std::string& prefix,
                             std::uint64_t cycle) const override;

  /// Injection/scrub window over the unit's physical storage.
  fault::FaultTarget* fault_target() override { return &fault_target_; }

  // --- Checkpoint / restore hooks (src/fault/snapshot.h). ---

  /// Crash-stop: drops the interface FIFOs, in-flight credits, and the
  /// unit's pipeline contents; storage and fill cursors survive.
  void purge() override;

  /// Group 0's copy of the contents in logical address order (all groups
  /// hold identical replicas).
  std::vector<fault::EntryState> logical_entries() override;

  /// [n_groups, (stored, current, offset) per group, fill per block].
  std::vector<std::uint64_t> snapshot_cursors() const override {
    return unit_.snapshot_cursors();
  }
  void restore_cursors(const std::vector<std::uint64_t>& cursors) override {
    unit_.restore_cursors(cursors);
  }

  /// FIFO occupancies and in-flight credits for watchdog diagnostics.
  std::string debug_dump() const override;

  void eval();

  void commit() {
    // Activity gating: a quiescent unit's clock edge is provably a no-op
    // (CamUnit::quiescent), so skip it entirely. Simulated time
    // still advances.
    if (unit_.quiescent()) {
      ++stats_.gated_cycles;
    } else {
      unit_.commit();
    }
    ++stats_.cycles;
    if (unit_.response().has_value() || unit_.update_ack().has_value()) drain_outputs();
  }

 private:
  /// Moves the unit's registered outputs into the interface FIFOs.
  void drain_outputs();

  Config cfg_;
  cam::CamUnit unit_;
  sim::Fifo<cam::UnitRequest> request_fifo_;
  sim::Fifo<cam::UnitResponse> response_fifo_;
  sim::Fifo<cam::UnitUpdateAck> ack_fifo_;

  // Credits: results guaranteed space in the output FIFOs.
  std::size_t searches_in_flight_ = 0;
  std::size_t updates_in_flight_ = 0;

  fault::UnitFaultTarget fault_target_{unit_};

  Stats stats_;
};

}  // namespace dspcam::system
