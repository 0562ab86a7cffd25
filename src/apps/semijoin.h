// Semi-join / IN-list filter on the CAM (database query acceleration).
//
// The third application domain the paper's introduction claims ("database
// query acceleration"): filter a probe column against a build-side key set -
// the inner loop of hash joins, IN-list predicates, and dictionary filters.
//
//   CAM engine:  load the build keys (16 words/beat), then stream the probe
//                column at min(M, key_lanes) keys per cycle; every hit is an
//                output row. Build sets beyond the CAM capacity run in
//                partition passes (load chunk, replay probes).
//   Hash engine: the conventional FPGA design (e.g. the Vitis database
//                library): an on-chip hash table built at ~1 key/cycle and
//                probed at ~1 key/cycle, each with an expected extra
//                (load-factor * chain) memory access per operation and a
//                multi-cycle hashing pipeline that II=1 hides.
//
// Both engines return exact match results (verified in tests against
// std::unordered_set) plus modelled cycles.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/system/backend.h"
#include "src/tc/cam_accel.h"
#include "src/tc/memory_model.h"

namespace dspcam::apps {

/// Result of one filtered probe pass.
struct SemiJoinResult {
  std::uint64_t matches = 0;     ///< Probe rows that found a build key.
  std::uint64_t cycles = 0;      ///< Modelled kernel cycles.
  double freq_mhz = 0;
  double milliseconds() const noexcept {
    return freq_mhz == 0 ? 0 : static_cast<double>(cycles) / (freq_mhz * 1e3);
  }
};

/// CAM-based semi-join engine.
class CamSemiJoin {
 public:
  CamSemiJoin();  // default: the paper's 2K x 32b unit
  explicit CamSemiJoin(const tc::CamTcAccelerator::Config& cfg);

  SemiJoinResult run(std::span<const std::uint32_t> build,
                     std::span<const std::uint32_t> probe) const;

 private:
  tc::CamTcAccelerator::Config cfg_;
};

/// Executes the semi-join on a real cycle-stepped CamBackend via the async
/// driver (instead of the analytic cost model): build keys are deduplicated
/// and loaded in partition passes sized to the backend capacity; the probe
/// column streams through as pipelined multi-key search beats. `matches` is
/// exact; `cycles` is the backend clock consumed. Works with the DSP
/// CamSystem and the sharded engine.
SemiJoinResult run_semijoin_on_backend(system::CamBackend& backend,
                                       std::span<const std::uint32_t> build,
                                       std::span<const std::uint32_t> probe,
                                       double freq_mhz = 0.0);

/// Hash-table baseline engine.
class HashSemiJoin {
 public:
  struct Config {
    tc::MemoryModel::Config memory;
    double freq_mhz = 300.0;
    double chain_factor = 0.5;  ///< Expected extra accesses per op (load factor).
  };

  HashSemiJoin();  // default Config
  explicit HashSemiJoin(const Config& cfg);

  SemiJoinResult run(std::span<const std::uint32_t> build,
                     std::span<const std::uint32_t> probe) const;

 private:
  Config cfg_;
};

}  // namespace dspcam::apps
