// DSP-based CAM cell (paper Fig. 2, Table V).
//
// One cell = one DSP48E2 slice configured for the logic-unit XOR:
//
//   O = (A:B) XOR C        (paper Eq. 1)
//
// The stored word lives in the concatenated A:B registers (written through
// the normal A/B ports in one cycle); the search key arrives on C; the
// pattern detector reports a match when the XOR is all-zero on every bit the
// MASK does not ignore. BCAM/TCAM/RMCAM differ only in MASK configuration
// (Table II) - resource usage and latency are identical for all three
// (Table V: 1 entry <= 48 bits, update 1 cycle, search 2 cycles, 1 DSP /
// 0 LUT / 0 BRAM).
//
// A valid flip-flop outside the DSP gates the match line so never-written
// cells cannot match; it is the only non-DSP state in the cell and costs a
// register, not a LUT.
#pragma once

#include <cstdint>

#include "src/cam/config.h"
#include "src/cam/mask.h"
#include "src/dsp/dsp48e2.h"

namespace dspcam::cam {

/// One DSP48E2-backed CAM cell.
class CamCell {
 public:
  explicit CamCell(const CellConfig& cfg);

  const CellConfig& config() const noexcept { return cfg_; }

  /// The cell's current MASK (width bits always masked; TCAM/RMCAM add
  /// per-entry ignore bits).
  std::uint64_t mask() const noexcept { return dsp_.attributes().mask; }

  // --- Per-cycle drive interface (call at most one write/clear and at most
  // --- one search per cycle, before this cell's commit). ---

  /// Latches `value` into A:B at the coming clock edge and marks the cell
  /// valid. For TCAM/RMCAM, `entry_mask` carries the per-entry MASK
  /// (build with tcam_mask()/rmcam_mask()); BCAM callers pass no mask and
  /// get the plain width mask.
  void drive_write(Word value);
  void drive_write(Word value, std::uint64_t entry_mask);

  /// Latches `key` into C at the coming edge; the match line answers two
  /// edges later.
  void drive_search(Word key);

  /// Synchronous clear: invalidates the cell and flushes the DSP pipeline.
  void drive_clear();

  /// Invalidates the cell at the coming edge without touching the DSP
  /// (extension: a clear line on the valid flag; the stored word remains in
  /// A:B but can no longer match). One cycle, like a write.
  void drive_invalidate();

  /// Immediate clear outside the clocked protocol - testbench-level
  /// convenience equivalent to asserting reset and cycling once. Used by
  /// runtime group reconfiguration, which architecturally implies a reload.
  void hard_clear();

  /// Overwrites the cell's registered storage state (A:B word, per-entry
  /// MASK, valid flag) outside the clocked protocol - fault injection and
  /// scrub repair (src/fault/), which model events asynchronous to the
  /// clock. The P-stage pipeline is untouched: a compare already in flight
  /// evaluated against the pre-poke state, exactly as a post-edge upset
  /// behaves in hardware.
  void poke_state(Word stored, std::uint64_t entry_mask, bool valid);

  // --- Registered outputs (state as of the last commit). ---

  /// Match line: pattern detect AND valid, aligned to the P stage.
  bool match() const noexcept { return dsp_.outputs().pattern_detect && valid_at_p_; }

  /// True once a word has been stored (registered, current state).
  bool valid() const noexcept { return valid_; }

  /// The stored word (registered A:B), truncated to the data width.
  Word stored() const noexcept;

  /// Search latency in cycles through this cell (C register + P register).
  unsigned search_latency() const noexcept { return dsp_.c_to_p_latency(); }

  /// Direct access to the underlying slice (tests, resource accounting).
  const dsp::Dsp48e2& slice() const noexcept { return dsp_; }

  void eval() {}
  void commit();

 private:
  CellConfig cfg_;
  dsp::Dsp48e2 dsp_;

  bool valid_ = false;
  bool valid_at_p_ = false;  ///< valid_ delayed to align with the P stage.

  // Pending drives for the coming edge.
  bool write_pending_ = false;
  Word write_value_ = 0;
  std::uint64_t write_mask_ = 0;
  bool search_pending_ = false;
  Word search_key_ = 0;
  bool clear_pending_ = false;
  bool invalidate_pending_ = false;
};

}  // namespace dspcam::cam
