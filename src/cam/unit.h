// DSP-based CAM unit (paper Fig. 4, Tables VII-VIII).
//
// The unit combines multiple CAM blocks with a Routing Compute module, a
// Post-Router, and input/output interfaces. Blocks are aggregated into M
// *CAM groups* (a runtime parameter): every group stores a full copy of the
// data set, so up to M search keys can be served per cycle, one per group -
// the paper's multi-query mechanism.
//
// Update path (5 pipeline stages + the block's 1-cycle write = 6 cycles,
// Table VIII):
//   input interface -> routing compute (Routing Table lookup) -> replication
//   to all M groups -> post-router crossbar -> block input; within each
//   group the Block Address Controller fills blocks sequentially,
//   round-robin, spilling to the next block when one fills.
//
// Search path (3 unit stages + block search 3-4 + result collection = 7-8
// cycles, Table VIII):
//   input interface -> routing compute (key -> group assignment) ->
//   post-router (replicate the key N times, broadcast to the group's
//   blocks) -> parallel block search -> per-group reduction register.
// Units above 2048 entries enable the blocks' encoder output buffer for
// timing closure, which is why Table VIII's search latency steps 7 -> 8.
//
// Both paths are fully pipelined with initiation interval 1, so throughput
// is set purely by the clock frequency (and the words-per-beat factor for
// updates) - exactly how the paper derives Tables VI and VIII.
//
// Evaluation (BlockConfig::eval_mode): kReference instantiates every
// CamBlock and clocks each block's own pipeline. kFast builds no CamBlock:
// all blocks of a group run identical pipelines, so the unit keeps one
// shared search pipeline and one packed FastPlane per group (the group's
// blocks in ascending physical id, one unit-wide store) - one kernel call
// per key per group, the global address read straight off the plane index
// (DESIGN.md §15). Both modes are cycle- and bit-identical.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/cam/block.h"
#include "src/cam/config.h"
#include "src/cam/fast_plane.h"
#include "src/cam/routing.h"
#include "src/cam/transactions.h"
#include "src/sim/component.h"
#include "src/sim/delay_line.h"

namespace dspcam::cam {

/// The full configurable CAM unit.
class CamUnit : public sim::Component {
 public:
  explicit CamUnit(const UnitConfig& cfg);
  // The group planes view the unit's own store: copies would alias it.
  CamUnit(const CamUnit&) = delete;
  CamUnit& operator=(const CamUnit&) = delete;

  const UnitConfig& config() const noexcept { return cfg_; }

  /// Current runtime group count M.
  unsigned groups() const noexcept { return routing_.groups(); }

  /// Blocks per group (N = unit_size / M for the default mapping).
  unsigned blocks_per_group(unsigned group) const {
    return static_cast<unsigned>(routing_.blocks_of(group).size());
  }

  /// End-to-end latencies for this configuration.
  unsigned search_latency() const noexcept {
    return kSearchPipeStages + 1 /*block issue handoff*/ +
           (cfg_.block.output_buffer ? 4 : 3) /*block*/ - 1 /*response overlaps*/ +
           1 /*collect register*/;
  }
  static constexpr unsigned update_latency() noexcept {
    return kUpdatePipeStages + 1 /*handoff*/ + CamBlock::update_latency();
  }

  // --- Runtime reconfiguration (user-kernel control plane). ---

  /// Reconfigures the group count M. M must divide the unit size. Changing
  /// the grouping redefines where data lives, so the unit must be idle (no
  /// in-flight operations) and all stored contents are cleared.
  void configure_groups(unsigned m);

  /// Reassigns a block to a different group (Routing Table update). Same
  /// idle+clear semantics as configure_groups.
  void remap_block(unsigned block, unsigned group);

  /// True when no operation is anywhere in the unit's or blocks' pipelines.
  bool idle() const noexcept;

  /// Activity gating (see Component::quiescent): idle, nothing visible on
  /// the unit's output registers, and every block has retired its own
  /// visible outputs - a commit would change nothing observable.
  bool quiescent() const noexcept override {
    return (fast() || active_blocks_.empty()) && !response_.has_value() && idle();
  }

  /// Blocks with live pipeline/output activity this cycle - the per-unit
  /// occupancy the telemetry counter tracks sample (the simulation's stand-in
  /// for the paper's post-hoc resource-activity readout). kFast derives it
  /// from per-block busy-until edges; both modes agree every cycle.
  std::size_t active_block_count() const noexcept;

  // --- Per-cycle bus interface (issue during the owner's eval phase). ---

  /// Presents one bus beat (update with up to words_per_beat words, search
  /// with up to M keys, or reset). One beat per cycle.
  void issue(UnitRequest request);

  bool can_accept() const noexcept { return !pending_.has_value(); }

  /// Search response that became visible this cycle, if any.
  const std::optional<UnitResponse>& response() const noexcept { return response_; }

  /// Update acknowledgement that became visible this cycle, if any.
  const std::optional<UnitUpdateAck>& update_ack() const noexcept {
    return ack_pipe_.output();
  }

  // --- Introspection. ---

  /// Entries stored per group (every group holds a full copy).
  unsigned stored_per_group() const noexcept;
  unsigned capacity_per_group() const noexcept;

  /// Name of the fast-path match kernel group 0's plane selected for its
  /// depth; "reference" in EvalMode::kReference. See match_kernel.h.
  std::string match_kernel_name() const;

  /// True when group `group`'s plane answers searches from its exact-match
  /// index (FastPlane::indexed(); DESIGN.md §11); false in kReference.
  bool group_indexed(unsigned group) const {
    return fast() && group < routing_.groups() && planes_[group].indexed();
  }

  const RoutingTable& routing() const noexcept { return routing_; }

  /// The block object itself: EvalMode::kReference only (kFast builds no
  /// blocks). Throws SimError in kFast or past the last block; use entry()
  /// and block_fill(), which work in both modes.
  const CamBlock& block(unsigned index) const;

  /// Mode-independent view of one physical entry's registered state:
  /// block (entry / block_size), cell (entry % block_size). Throws SimError
  /// naming the index past the unit's last entry.
  EntryState entry(std::size_t index) const;

  /// Block `b`'s fill pointer (Cell Address Controller). Throws SimError
  /// naming the index past the last block.
  unsigned block_fill(unsigned b) const;

  /// Overwrites one physical entry's registered state outside the clocked
  /// protocol (fault injection / scrub repair, src/fault/). `entry` indexes
  /// the unit's physical storage: block (entry / block_size), cell
  /// (entry % block_size) - every group replica is separately addressable,
  /// matching how an upset strikes one slice, not every copy.
  void poke_entry(std::size_t entry, Word stored, std::uint64_t mask, bool valid,
                  bool parity);

  /// Total DSP slices instantiated (= total CAM cells).
  unsigned dsp_count() const noexcept { return cfg_.unit_size * cfg_.block.block_size; }

  // --- Checkpoint/restore support (src/fault/snapshot.h). ---

  /// The unit's host-side fill state - Block Address Controller cursors and
  /// per-block fill pointers - flattened as
  /// [n_groups, (stored, current, offset) per group, fill per block].
  /// Mode-independent (kFast and kReference share it), so a snapshot taken
  /// under one eval mode restores under the other.
  std::vector<std::uint64_t> snapshot_cursors() const;

  /// Restores a cursor vector captured by snapshot_cursors() on a unit of
  /// the same geometry and grouping. Throws SimError on shape or range
  /// mismatches.
  void restore_cursors(const std::vector<std::uint64_t>& cursors);

  /// Discards every in-flight beat, pipeline stage, and registered output
  /// in the unit and its blocks WITHOUT touching storage or fill cursors:
  /// the crash-stop purge a shard rebuild/restore starts from.
  void flush_pipelines();

  void eval() override {}
  void commit() override;

 private:
  static constexpr unsigned kSearchPipeStages = 3;  // in_if, routing, post-route
  static constexpr unsigned kUpdatePipeStages = 4;  // + replication stage

  struct SearchMeta {
    std::uint64_t seq = 0;
    std::vector<Word> keys;
    std::vector<unsigned> groups;  ///< Group assigned to each key.
    std::uint64_t epoch = 0;       ///< kFast: resets dispatched before it.
  };

  /// One block-level write-class op routed from a unit beat. kReference
  /// issues it to the block at once; kFast applies it to the plane at the
  /// next edge (the block's 1-cycle update path).
  struct PlaneWrite {
    OpKind op = OpKind::kUpdate;  ///< kUpdate or kInvalidate.
    unsigned block = 0;
    std::uint32_t cell = 0;       ///< Addressed write / invalidate target.
    bool fill = false;            ///< kUpdate: append at the fill pointer.
    unsigned word_pos = 0;        ///< kUpdate: first word in write_words_.
    unsigned count = 0;           ///< kUpdate: words for this block.
  };

  /// kFast: one key's reduced group result.
  struct KeyMatch {
    bool hit = false;
    std::uint32_t address = 0;
    std::uint32_t count = 0;
    bool parity_error = false;
  };

  bool fast() const noexcept { return blocks_.empty(); }
  void rebuild_controllers();
  void apply_routing_change();
  void issue_to_block(unsigned block_id, BlockRequest request);
  void dispatch_update(const UnitRequest& req);
  void dispatch_search(const UnitRequest& req);
  void collect_responses();
  void reclaim_meta_buffers();

  // kFast plane machinery (DESIGN.md §15).
  void relayout();
  void compare_retiring();
  void apply_plane_writes();
  void mark_block_busy(unsigned block, std::uint64_t until) noexcept;
  FastPlane& plane_of(unsigned block) { return planes_[routing_.group_of(block)]; }

  UnitConfig cfg_;
  std::vector<std::unique_ptr<CamBlock>> blocks_;  ///< kReference only.
  RoutingTable routing_;
  std::vector<BlockAddressController> controllers_;  ///< One per group.

  // --- kFast state. ---
  FastPlaneStore store_;                  ///< Unit-wide, sized at construction.
  std::vector<std::uint64_t> onehot_;     ///< One-hot/count: a compare's match words.
  std::vector<FastPlane> planes_;         ///< Slot g serves group g (unit_size slots).
  std::vector<unsigned> plane_blocks_;    ///< Group-major, ascending block ids.
  std::vector<unsigned> group_first_;     ///< Group g's run in plane_blocks_.
  std::vector<unsigned> group_next_;      ///< relayout() scratch.
  std::vector<std::uint32_t> block_base_; ///< Block's first entry in its plane.
  std::vector<unsigned> fills_;           ///< Per-block fill pointers.
  // Activity (active_block_count): a block is active after edge e while
  // e < max(block_busy_until_[b], group_busy_until_[group of b]).
  std::vector<std::uint64_t> block_busy_until_;  ///< Write-path activity.
  std::vector<std::uint64_t> group_busy_until_;  ///< Search activity.
  std::uint64_t busy_until_ = 0;  ///< Max over both arrays.
  std::uint64_t edge_ = 0;        ///< Clock edges committed.
  std::uint64_t reset_epoch_ = 0; ///< Reset beats dispatched.
  bool reset_pending_ = false;    ///< Reset dispatched last edge.
  std::vector<PlaneWrite> writes_;  ///< Routed writes (kFast: applied next edge).
  std::vector<Word> write_words_;
  std::vector<std::uint64_t> write_masks_;
  std::vector<KeyMatch> matches_;   ///< Results collected this edge.
  std::vector<KeyMatch> buffered_;  ///< Output buffer: next edge's results.

  // Activity gating: only blocks on this list are committed/collected each
  // cycle. A block joins when a beat is routed to it and leaves once it is
  // quiescent again, so a unit with a handful of busy blocks pays for those
  // blocks only - not for unit_size block walks per cycle.
  std::vector<char> block_active_;        ///< Membership flags (parallel to blocks_).
  std::vector<unsigned> active_blocks_;   ///< Insertion-ordered active block ids.

  // Hot-path buffer recycling (no per-cycle heap traffic at steady state):
  // result vectors of retired responses and the key/group vectors of retired
  // SearchMeta records are reused for the next beat. The meta pool holds one
  // record per beat the pipelines can carry, so a search burst after an
  // idle gap finds every record it needs already allocated.
  std::vector<UnitSearchResult> spare_results_;
  std::vector<SearchMeta> spare_metas_;

  std::optional<UnitRequest> pending_;
  sim::DelayLine<UnitRequest> search_pipe_;
  sim::DelayLine<UnitRequest> update_pipe_;
  sim::DelayLine<SearchMeta> meta_pipe_;        ///< Aligns collection with block responses.
  sim::DelayLine<UnitUpdateAck> ack_pipe_;      ///< Aligns acks with the stored data.

  std::optional<UnitResponse> response_;
  std::uint64_t inflight_ = 0;  ///< Operations somewhere in the pipelines.
};

}  // namespace dspcam::cam
