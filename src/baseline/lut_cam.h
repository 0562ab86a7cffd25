// Behavioral + cost model of a LUTRAM-based TCAM (the LUT family of
// Table I: Scale-TCAM, DURE, BPR-CAM, Frac-TCAM).
//
// Architecture modelled: the key is split into chunks of `chunk_bits` bits;
// each chunk addresses a transposed LUTRAM table of 2^chunk_bits rows x
// `entries` columns. A search reads one row per chunk and ANDs the rows
// into a match vector (fast, fully parallel). An update must rewrite the
// entry's column bit in *every* row of every chunk table - the classic
// LUTRAM-CAM weakness the paper targets: update latency grows as
// 2^chunk_bits.
//
// With chunk_bits = 5 the model reproduces Frac-TCAM's published numbers
// exactly: 16384 LUTs for 1024x160 and a 38-cycle update (32 row rewrites +
// 6 cycles of control).
#pragma once

#include <cstdint>

#include "src/cam/reference_cam.h"
#include "src/model/resources.h"

namespace dspcam::baseline {

/// LUTRAM-based ternary CAM model.
class LutTcam {
 public:
  struct Config {
    unsigned entries = 1024;
    unsigned width = 32;      ///< Bits per entry (may exceed 48 here).
    unsigned chunk_bits = 5;  ///< LUTRAM address bits per chunk (Frac-TCAM: 5).
  };

  explicit LutTcam(const Config& cfg);

  const Config& config() const noexcept { return cfg_; }

  struct OpResult {
    bool hit = false;
    std::uint32_t index = 0;
    unsigned cycles = 0;  ///< Latency of this operation.
  };

  /// Writes (value, mask) at `index`; returns the update latency
  /// (2^chunk_bits row rewrites + fixed control overhead).
  unsigned update(std::uint32_t index, std::uint64_t value, std::uint64_t mask = 0);

  /// Clears the valid flag at `index` (single-cycle: one column clear).
  void invalidate(std::uint32_t index);

  /// Searches for `key`; pipelined, 2-cycle latency.
  OpResult search(std::uint64_t key) const;

  void reset();

  /// Latency constants exposed for the comparison benches.
  unsigned update_latency() const noexcept { return (1u << cfg_.chunk_bits) + 6; }
  static constexpr unsigned search_latency() noexcept { return 2; }

  /// LUT cost: chunk tables (2^chunk_bits x entries bits each, 64 bits per
  /// LUT6 in RAM mode) + the AND-reduce/priority-encode tree.
  model::ResourceUsage resources() const;

  /// Representative achievable clock for this size (anchored to Frac-TCAM's
  /// 357 MHz at 1024 entries and Scale-TCAM's 139 MHz at 4096).
  double frequency_mhz() const;

 private:
  Config cfg_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> masks_;
  std::vector<bool> valid_;
};

}  // namespace dspcam::baseline
