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
// Evaluation (UnitConfig::eval_mode): kReference instantiates every
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
#include "src/common/ring_queue.h"

namespace dspcam::cam {

/// The full configurable CAM unit.
class CamUnit {
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

  /// True when no beat is anywhere in the unit's or blocks' pipelines: the
  /// newest beat of each queue retired before this edge. O(1) on kFast
  /// (kReference also asks its active blocks).
  bool idle() const noexcept {
    if (!searches_.empty() && searches_.back().retire >= edge_) return false;
    if (!writes_.empty() && writes_.back().retire >= edge_) return false;
    for (unsigned b : active_blocks_) {
      if (!blocks_[b]->idle()) return false;
    }
    return true;
  }

  /// Activity gating: idle, and every block has retired its own visible
  /// outputs - a commit would change nothing observable and leave the unit
  /// quiescent, so the owner may skip it. (A unit output is visible only at
  /// its beat's retire edge, when the unit is not idle.)
  bool quiescent() const noexcept { return active_blocks_.empty() && idle(); }

  /// Blocks with live pipeline/output activity this cycle - the per-unit
  /// occupancy the telemetry counter tracks sample (the simulation's stand-in
  /// for the paper's post-hoc resource-activity readout). kFast derives it
  /// from the queued beats alone - the groups a live search occupies plus
  /// the blocks the last two write beats routed to - without walking the
  /// unit's blocks; both modes agree every cycle.
  std::size_t active_block_count() const noexcept;

  // --- Per-cycle bus interface (issue during the owner's eval phase). ---

  /// Presents one bus beat (update with up to words_per_beat words, search
  /// with up to M keys, or reset). One beat per cycle. The beat's record is
  /// built in place from `request`, which is left moved-from.
  void issue(UnitRequest&& request);

  bool can_accept() const noexcept { return last_issue_ != edge_ + 1; }

  /// Search response that became visible this cycle, if any.
  const std::optional<UnitResponse>& response() const noexcept {
    return response_edge_ == edge_ ? response_ : kNoResponse;
  }

  /// Update acknowledgement that became visible this cycle, if any.
  const std::optional<UnitUpdateAck>& update_ack() const noexcept {
    return ack_edge_ == edge_ ? ack_ : kNoAck;
  }

  // --- Introspection. ---

  /// Entries stored per group (every group holds a full copy).
  unsigned stored_per_group() const noexcept;
  unsigned capacity_per_group() const noexcept;

  /// Name of the sweep kernel the fast planes run (match_kernel.h);
  /// "reference" in EvalMode::kReference.
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

  void eval() {}

  /// One clock edge. An edge at which no queued beat acts (and, in
  /// kReference, no block is active) only advances the edge counter.
  void commit() {
    const std::uint64_t bit = std::uint64_t{1} << (++edge_ & 63);
    if ((due_ & bit) != 0 || !active_blocks_.empty()) commit_due(bit);
  }

 private:
  static constexpr unsigned kSearchPipeStages = 3;  // in_if, routing, post-route
  static constexpr unsigned kUpdatePipeStages = 4;  // + replication stage

  /// One bus beat in flight, stamped at issue with every edge it acts at.
  /// Beats enter their queue in issue order and every stamp is a fixed
  /// offset from the issue edge, so each queue is ordered by every stamp.
  struct Beat {
    Beat(UnitRequest&& request, std::uint64_t dispatch_edge, std::uint64_t compare_edge,
         std::uint64_t retire_edge, std::uint64_t reset_epoch)
        : req(std::move(request)),
          dispatch(dispatch_edge),
          compare(compare_edge),
          retire(retire_edge),
          epoch(reset_epoch) {}

    UnitRequest req;
    std::uint64_t dispatch = 0;  ///< Routed to the planes (kReference: blocks).
    std::uint64_t compare = 0;   ///< Search, kFast: the match latches.
    /// Search: collected into response(); write/invalidate: applied and
    /// acked; reset: the planes flush. A flushed search or a reset leaves
    /// its queue here, any other beat at the next edge something is due.
    std::uint64_t retire = 0;
    std::uint64_t epoch = 0;     ///< Search: resets issued (so dispatched) before it.
    UnitUpdateAck ack;           ///< Write/invalidate: filled at dispatch.
  };

  /// One block-level write-class op routed from a unit beat. kReference
  /// issues it to the block at once; kFast applies it to the plane at the
  /// next edge (the block's 1-cycle update path).
  struct PlaneWrite {
    OpKind op = OpKind::kUpdate;  ///< kUpdate or kInvalidate.
    unsigned block = 0;
    std::uint32_t cell = 0;       ///< Addressed write / invalidate target.
    bool fill = false;            ///< kUpdate: append at the fill pointer.
    unsigned word_pos = 0;        ///< kUpdate: first word in the beat.
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
  void clear_pipelines();
  void issue_to_block(unsigned block_id, BlockRequest request);
  void commit_due(std::uint64_t bit);
  void dispatch_update(Beat& beat);
  void dispatch_search(const Beat& beat);
  void collect(const Beat& beat);
  void mark_due(std::uint64_t edge) noexcept { due_ |= std::uint64_t{1} << (edge & 63); }

  // kFast plane machinery (DESIGN.md §15).
  void relayout();
  void compare(const Beat& beat);
  void apply(const Beat& beat);
  FastPlane& plane_of(unsigned block) { return planes_[routing_.group_of(block)]; }

  UnitConfig cfg_;
  std::vector<std::unique_ptr<CamBlock>> blocks_;  ///< kReference only.
  RoutingTable routing_;
  std::vector<BlockAddressController> controllers_;  ///< One per group.

  // --- kFast state. ---
  FastPlaneStore store_;                  ///< Unit-wide, sized at construction.
  std::vector<std::uint64_t> onehot_;     ///< One-hot/count: a compare's match words.
  std::vector<FastPlane> planes_;         ///< Slot g serves group g (unit_size slots).
  /// The per-block and per-group plane index: one allocation of
  /// 6 * unit_size + 1 entries, carved into the runs below.
  std::unique_ptr<unsigned[]> index_;
  unsigned* plane_blocks_ = nullptr;  ///< Group-major, ascending block ids.
  unsigned* group_first_ = nullptr;   ///< Group g's run in plane_blocks_ (M + 1 used).
  unsigned* group_next_ = nullptr;    ///< relayout() scratch.
  unsigned* block_base_ = nullptr;    ///< Block's first entry in its plane.
  unsigned* fills_ = nullptr;         ///< Per-block fill pointers.
  /// Low 32 bits of the last edge a write routed to the block. Only ever
  /// compared against the current edge for a block routed at this edge or
  /// the one before, so the truncation is exact.
  unsigned* block_routed_ = nullptr;
  std::vector<PlaneWrite> routed_;   ///< Writes routed this edge (kFast: apply next edge).
  std::vector<PlaneWrite> applied_;  ///< Writes applied at applied_edge_.
  BeatVec<KeyMatch> matches_[2];     ///< Compare results, by compare edge parity.

  // Activity gating: only blocks on this list are committed/collected each
  // cycle. A block joins when a beat is routed to it and leaves once it is
  // quiescent again, so a unit with a handful of busy blocks pays for those
  // blocks only - not for unit_size block walks per cycle.
  std::vector<char> block_active_;        ///< Membership flags (parallel to blocks_).
  std::vector<unsigned> active_blocks_;   ///< Insertion-ordered active block ids.

  // The unit pipeline (DESIGN.md §15): beats in issue order, one queue per
  // path, and a wheel of the edges some beat acts at.
  RingQueue<Beat> searches_;
  RingQueue<Beat> writes_;  ///< Updates, invalidates and resets.
  std::uint64_t due_ = 0;   ///< Bit (t & 63) set: a queued beat acts at edge t.
  std::uint64_t edge_ = 0;  ///< Clock edges committed.
  std::uint64_t last_issue_ = 0;  ///< Edge that registers the newest beat.
  std::uint64_t resets_issued_ = 0;
  std::uint64_t reset_epoch_ = 0;  ///< Reset beats dispatched.
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::uint64_t reset_edge_ = kNever;    ///< Edge the last reset dispatched.
  std::uint64_t applied_edge_ = kNever;

  // Registered outputs, each visible only at the edge it was registered.
  std::optional<UnitResponse> response_;
  std::optional<UnitUpdateAck> ack_;
  std::uint64_t response_edge_ = kNever;
  std::uint64_t ack_edge_ = kNever;
  static inline const std::optional<UnitResponse> kNoResponse{};
  static inline const std::optional<UnitUpdateAck> kNoAck{};
};

}  // namespace dspcam::cam
