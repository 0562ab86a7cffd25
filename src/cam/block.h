// DSP-based CAM block (paper Fig. 3, Table VI).
//
// A block groups a configurable number of CAM cells with the logic that
// turns raw storage+compare into CAM operations:
//
//   - DeMUX: routes each input beat to the update or search path based on
//     the control signals.
//   - Update logic + Cell Address Controller: a sequential fill pointer maps
//     each data word on the (wide) input bus to its cell, so one beat writes
//     words_per_beat cells in parallel -> update latency 1 cycle.
//   - Search logic: masks the redundant bus bits so one word acts as the
//     key, then broadcasts it to every cell for parallel comparison.
//   - Encoder: collects the match lines into the configured result encoding;
//     blocks of >= 256 cells add an output register for timing closure,
//     which is why Table VI's search latency steps from 3 to 4 cycles.
//
// Search pipeline: broadcast register (1) + DSP C register (1) + DSP P /
// pattern-detect register (1) = 3 cycles, +1 with the encoder buffer.
// Both paths are pipelined with initiation interval 1.
//
// Two evaluation paths (BlockConfig::eval_mode) produce bit- and
// cycle-identical behaviour:
//   - kReference drives one Dsp48e2 model per cell (the golden path).
//   - kFast mirrors the cells' registered state - stored word, per-entry
//     MASK, valid flag, parity bit - in one FastPlane of block_size entries
//     (fast_plane.h) and answers a search with one fused sweep→encode call
//     of the geometry-specialized kernel the plane selected from the
//     match-kernel registry (match_kernel.h), or with one exact-match
//     index lookup on a deep binary block (DESIGN.md §11). The broadcast
//     register, the DSP C/P register stages and the encoder buffer are
//     modelled by the same delay structures, so every response appears in
//     the same cycle with the same payload as the reference path. (A
//     CamUnit in kFast builds no CamBlock at all: it runs one plane per CAM
//     group behind a shared pipeline - DESIGN.md §15.)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cam/cell.h"
#include "src/cam/config.h"
#include "src/cam/encoder.h"
#include "src/cam/fast_plane.h"
#include "src/cam/match_kernel.h"
#include "src/cam/transactions.h"
#include "src/sim/component.h"
#include "src/sim/delay_line.h"

namespace dspcam::cam {

/// One CAM block.
class CamBlock : public sim::Component {
 public:
  explicit CamBlock(const BlockConfig& cfg);
  // The plane views the block's own store: copies would alias it.
  CamBlock(const CamBlock&) = delete;
  CamBlock& operator=(const CamBlock&) = delete;

  const BlockConfig& config() const noexcept { return cfg_; }

  /// End-to-end search latency in cycles for this configuration.
  unsigned search_latency() const noexcept { return cfg_.output_buffer ? 4 : 3; }

  /// End-to-end update latency in cycles (the DeMUX writes combinationally
  /// into the cells' input registers).
  static constexpr unsigned update_latency() noexcept { return 1; }

  // --- Per-cycle bus interface (issue during the owner's eval phase). ---

  /// Presents one bus beat. The post-router delivers update and search
  /// beats on distinct wires into the block's DeMUX, so one update beat and
  /// one search beat may arrive in the same cycle; two beats of the same
  /// kind in one cycle throw SimError.
  void issue(BlockRequest request);

  /// True if no beat of the given kind has been issued this cycle.
  bool can_accept(OpKind op) const noexcept {
    return op == OpKind::kSearch ? !pending_search_.has_value()
                                 : !pending_update_.has_value();
  }

  /// True when nothing is pending or in flight inside the block.
  bool idle() const noexcept {
    return !pending_update_ && !pending_search_ && !pending_reset_ && !in_reg_ &&
           tags_.drained() && out_buf_.drained();
  }

  /// Idle with no registered outputs left to retire: safe for a scheduler
  /// to skip this cycle entirely (activity gating).
  bool quiescent() const noexcept override {
    return idle() && !response_.has_value() && !ack_.has_value();
  }

  /// The search response that became visible this cycle, if any.
  const std::optional<BlockResponse>& response() const noexcept { return response_; }

  /// The update acknowledgement that became visible this cycle, if any.
  const std::optional<UpdateAck>& update_ack() const noexcept { return ack_; }

  // --- Introspection (registered state). ---

  /// Number of entries stored so far (the Cell Address Controller's fill
  /// pointer).
  unsigned fill() const noexcept { return fill_; }
  bool full() const noexcept { return fill_ >= cfg_.block_size; }

  /// Overwrites the fill pointer outside the clocked protocol (checkpoint
  /// restore, src/fault/snapshot.h). Throws SimError past the block size.
  void set_fill(unsigned fill);

  /// Direct cell access for tests and resource accounting. Only the
  /// reference path instantiates Dsp48e2 cells; throws SimError in kFast
  /// mode (use stored_word()/entry_mask()/entry_valid(), which work in
  /// both modes).
  const CamCell& cell(unsigned index) const;
  unsigned size() const noexcept { return cfg_.block_size; }

  /// Mode-independent views of one entry's registered state.
  Word stored_word(unsigned index) const;
  std::uint64_t entry_mask(unsigned index) const;
  bool entry_valid(unsigned index) const;

  /// The entry's parity bit: the maintained bit on parity-protected blocks
  /// (BlockConfig::parity), the derived value otherwise.
  bool entry_parity(unsigned index) const;

  /// The match kernel selected for this block's geometry at construction
  /// (match_kernel.h), or nullptr in EvalMode::kReference.
  const MatchKernel* match_kernel() const noexcept {
    return fast() ? plane_.kernel() : nullptr;
  }

  /// The selected kernel's name; "reference" in EvalMode::kReference.
  std::string match_kernel_name() const;

  /// True while every entry's compare mask equals the plain width mask (the
  /// precondition for the mask-free kernel family). Writes with per-entry
  /// masks and fault pokes can clear it; a reset restores it. While false,
  /// the plane dispatches the masked fallback kernel instead. Always true in
  /// EvalMode::kReference.
  bool mask_plane_uniform() const noexcept { return !fast() || plane_.mask_uniform(); }

  /// True when the fast plane answers searches from its exact-match index
  /// (FastPlane::indexed(); DESIGN.md §11); false in EvalMode::kReference.
  bool plane_indexed() const noexcept { return fast() && plane_.indexed(); }

  /// Overwrites one entry's registered state outside the clocked protocol
  /// (fault injection / scrub repair, src/fault/). Works identically in both
  /// eval modes; `stored` is truncated to the data width. The parity bit is
  /// written *verbatim* (never recomputed) on protected blocks - a poke that
  /// corrupts the stored word while keeping the old parity is exactly what
  /// an SEU looks like, and what the parity check must catch. Ignored when
  /// the block is unprotected.
  void poke_entry(unsigned index, Word stored, std::uint64_t entry_mask, bool valid,
                  bool parity);

  /// Immediate full clear outside the clocked protocol (see
  /// CamCell::hard_clear); used by runtime group reconfiguration.
  void hard_reset();

  /// Discards every pending beat, in-flight compare, and registered output
  /// WITHOUT touching storage, parity, or the fill pointer - the crash-stop
  /// half of hard_reset(), used when a shard is purged for rebuild/restore
  /// (src/fault/snapshot.h).
  void flush_pipeline();

  void eval() override {}
  void commit() override;

 private:
  bool fast() const noexcept { return cells_.empty(); }
  void apply_reset();
  void apply_update_path(std::optional<UpdateAck>& new_ack);
  void gather_match_reference();

  /// Guarantees onehot_pool_ holds a live block_size-bit buffer (it is
  /// emptied whenever a one-hot response steals it in commit()).
  void ensure_onehot_pool() {
    if (onehot_pool_.word_count() == 0) onehot_pool_ = BitVec(cfg_.block_size);
  }

  // Reference-path parity (kFast keeps it in the plane): one maintained bit
  // per entry, packed 64/word. Legitimate writes recompute it; pokes
  // (src/fault/) write it verbatim.
  void reset_parity_bits();
  void set_parity_bit(unsigned index, bool value) noexcept;
  bool parity_bit(unsigned index) const noexcept {
    return ((parity_[index / 64] >> (index % 64)) & 1) != 0;
  }
  std::uint32_t count_parity_errors() const;

  BlockConfig cfg_;
  std::vector<std::unique_ptr<CamCell>> cells_;  ///< kReference only.
  std::vector<std::uint64_t> parity_;            ///< kReference + parity only.
  BitVec match_scratch_;  ///< kReference match-line bus, reused every cycle.

  // kFast: the packed match plane and its backing arrays.
  FastPlaneStore store_;
  FastPlane plane_;
  Word cmp_key_ = 0;         ///< Fast path's C-register mirror.
  bool pd_pending_ = false;  ///< A key latched last cycle awaits its compare.

  // The retiring compare's finished result. onehot_pool_ is a recycled
  // buffer: a one-hot response moves it out, and the next commit reclaims
  // the retiring response's buffer back into it, so steady state never
  // allocates.
  EncodedMatch enc_;
  BitVec onehot_pool_;

  unsigned fill_ = 0;  ///< Cell Address Controller write pointer.

  std::optional<BlockRequest> pending_update_;  ///< Update beat issued this cycle.
  std::optional<BlockRequest> pending_search_;  ///< Search beat issued this cycle.
  bool pending_reset_ = false;
  std::optional<BlockRequest> in_reg_;    ///< Search broadcast register.
  sim::DelayLine<QueryTag> tags_;         ///< Tracks in-flight searches.
  sim::DelayLine<BlockResponse> out_buf_; ///< Optional encoder output register.

  std::optional<BlockResponse> response_;
  std::optional<UpdateAck> ack_;
};

}  // namespace dspcam::cam
