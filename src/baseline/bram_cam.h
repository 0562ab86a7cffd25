// Behavioral + cost model of a BRAM-based CAM (the BRAM family of Table I:
// HP-TCAM, PUMP-CAM, IO-CAM).
//
// Architecture modelled: the key is split into chunks of `chunk_bits` bits;
// each chunk addresses a BRAM of 2^chunk_bits rows x `entries` columns
// holding the transposed one-hot presence bitmap. A search reads one row
// per chunk (synchronous BRAM read, 2 cycles) and ANDs the rows - 5 cycles
// end to end, matching HP-TCAM/REST-CAM. An update rewrites the entry's
// column across all 2^chunk_bits rows of each chunk table; with chunk_bits=7
// that is 128 row operations + 1 = 129 cycles, exactly PUMP-CAM's published
// update latency.
//
// The defining costs the paper contrasts against: large BRAM footprint
// (2^chunk_bits x entries bits per chunk regardless of how much is stored)
// and low clock (~87-135 MHz) because wide BRAM outputs must be ANDed.
#pragma once

#include <cstdint>
#include <vector>

#include "src/model/resources.h"

namespace dspcam::baseline {

/// BRAM-based binary/ternary CAM model.
class BramCam {
 public:
  struct Config {
    unsigned entries = 1024;
    unsigned width = 32;
    unsigned chunk_bits = 7;  ///< BRAM address bits per chunk (PUMP-CAM: 7).
  };

  explicit BramCam(const Config& cfg);

  const Config& config() const noexcept { return cfg_; }

  struct OpResult {
    bool hit = false;
    std::uint32_t index = 0;
    unsigned cycles = 0;
  };

  /// Writes `value` at `index` with optional per-entry don't-care `mask`
  /// (mask bit 1 ignores that key bit - the HP-TCAM ternary presence
  /// encoding); returns the update latency.
  unsigned update(std::uint32_t index, std::uint64_t value, std::uint64_t mask = 0);

  /// Clears the valid flag at `index` (single-cycle: one column clear).
  void invalidate(std::uint32_t index);

  /// Searches for `key`; 5-cycle latency (2 BRAM read + AND + encode + out).
  OpResult search(std::uint64_t key) const;

  void reset();

  unsigned update_latency() const noexcept { return (1u << cfg_.chunk_bits) + 1; }
  static constexpr unsigned search_latency() noexcept { return 5; }

  /// BRAM cost: one 2^chunk_bits x entries bitmap per chunk, packed into
  /// 36Kb tiles; plus the AND/encode LUTs.
  model::ResourceUsage resources() const;

  /// Representative BRAM-family clock (87-135 MHz in the survey).
  double frequency_mhz() const;

 private:
  Config cfg_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> masks_;
  std::vector<bool> valid_;
};

}  // namespace dspcam::baseline
