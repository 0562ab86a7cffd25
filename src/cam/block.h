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
// This is the cycle-accurate microarchitecture model: one Dsp48e2 per cell,
// each with its own C and P registers, so a search walks every cell. It is
// the golden path the simulator's fast evaluation is checked against. A
// CamUnit in EvalMode::kFast builds no CamBlock at all: it runs one packed
// match plane per CAM group behind a shared pipeline (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/cam/cell.h"
#include "src/cam/config.h"
#include "src/cam/encoder.h"
#include "src/cam/transactions.h"
#include "src/sim/delay_line.h"

namespace dspcam::cam {

/// One CAM block.
class CamBlock {
 public:
  explicit CamBlock(const BlockConfig& cfg);

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

  /// Idle with no registered outputs left to retire: safe for the owning
  /// unit to skip this cycle entirely (activity gating).
  bool quiescent() const noexcept {
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

  /// Direct cell access for tests and resource accounting.
  const CamCell& cell(unsigned index) const;
  unsigned size() const noexcept { return cfg_.block_size; }

  /// Views of one entry's registered state.
  Word stored_word(unsigned index) const;
  std::uint64_t entry_mask(unsigned index) const;
  bool entry_valid(unsigned index) const;

  /// The entry's parity bit: the maintained bit on parity-protected blocks
  /// (BlockConfig::parity), the derived value otherwise.
  bool entry_parity(unsigned index) const;

  /// Overwrites one entry's registered state outside the clocked protocol
  /// (fault injection / scrub repair, src/fault/); `stored` is truncated to
  /// the data width. The parity bit is written *verbatim* (never
  /// recomputed) on protected blocks - a poke that corrupts the stored word
  /// while keeping the old parity is exactly what an SEU looks like, and
  /// what the parity check must catch. Ignored when the block is
  /// unprotected.
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

  void eval() {}
  void commit();

 private:
  void apply_reset();
  void apply_update_path(std::optional<UpdateAck>& new_ack);
  void gather_match_lines();

  // Parity: one maintained bit per entry, packed 64/word. Legitimate writes
  // recompute it; pokes (src/fault/) write it verbatim.
  void reset_parity_bits();
  void set_parity_bit(unsigned index, bool value) noexcept;
  bool parity_bit(unsigned index) const noexcept {
    return ((parity_[index / 64] >> (index % 64)) & 1) != 0;
  }
  std::uint32_t count_parity_errors() const;

  BlockConfig cfg_;
  std::vector<std::unique_ptr<CamCell>> cells_;
  std::vector<std::uint64_t> parity_;  ///< Empty when unprotected.
  BitVec match_scratch_;  ///< Match-line bus, reused every cycle.

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
