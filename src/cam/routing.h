// Routing Compute support: the Routing Table and the per-group Block
// Address Controller (paper Fig. 4, Section III-C).
//
// A CAM *group* is "a logical abstraction ... not tied to the physical
// layout": the Routing Table stores the Block ID -> Group ID mapping, so
// groups can be rebuilt (when the user kernel reconfigures M at runtime) or
// individual blocks reassigned without touching the blocks themselves.
// Within each group, the Block Address Controller assigns update data to
// blocks sequentially: fill the current block, then point to the next
// (round-robin) - Section III-C.2.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/error.h"

namespace dspcam::cam {

/// Block ID -> Group ID mapping (the array in the Routing Compute module).
class RoutingTable {
 public:
  /// Builds the default mapping for `n_groups` groups over `n_blocks`
  /// blocks: contiguous runs, block b -> group b / (n_blocks / n_groups).
  /// Throws ConfigError unless n_groups divides n_blocks.
  RoutingTable(unsigned n_blocks, unsigned n_groups);

  unsigned blocks() const noexcept { return n_blocks_; }
  unsigned groups() const noexcept { return n_groups_; }

  unsigned group_of(unsigned block) const;
  /// The group's blocks in fill order. The view stays valid until the next
  /// rebuild() or remap().
  std::span<const unsigned> blocks_of(unsigned group) const;

  /// Rebuilds the default contiguous mapping with a new group count.
  void rebuild(unsigned n_groups);

  /// Reassigns one block to another group ("dynamic reassignment of
  /// resources"); it joins the end of that group's fill order. Group sizes
  /// may become unequal; searches still broadcast to every block of the
  /// key's group.
  void remap(unsigned block, unsigned group);

 private:
  unsigned* block_to_group() noexcept { return table_.data(); }
  unsigned* order() noexcept { return table_.data() + n_blocks_; }
  unsigned* group_start() noexcept { return table_.data() + 2 * n_blocks_; }
  const unsigned* group_start() const noexcept { return table_.data() + 2 * n_blocks_; }

  unsigned n_blocks_ = 0;
  unsigned n_groups_ = 0;
  /// One allocation, sized at construction: [group of each block | every
  /// group's blocks, group-major | group g's run starts at entry g, n_groups
  /// + 1 entries used].
  std::vector<unsigned> table_;
};

/// Round-robin sequential fill over one group's blocks.
class BlockAddressController {
 public:
  /// `block_ids` lists the group's blocks in fill order (borrowed: the
  /// caller keeps it alive and rebinds the controller when it changes);
  /// `block_size` is the per-block entry capacity.
  BlockAddressController(std::span<const unsigned> block_ids, unsigned block_size);

  /// A run of consecutive cell slots inside one block.
  struct Segment {
    unsigned block = 0;  ///< Unit-wide block ID.
    unsigned count = 0;  ///< Number of words directed to it.
  };

  /// Claims up to `n_words` slots inside the current block and advances the
  /// fill cursor past them, to the next block when this one fills. Returns
  /// the run; its count is below `n_words` when the block filled first
  /// (claim the rest, which spills into the following block) and 0 once
  /// the group is full.
  Segment claim(unsigned n_words) {
    if (n_words == 0 || current_ >= block_ids_.size()) return {};
    const unsigned room = block_size_ - offset_;
    const Segment seg{block_ids_[current_], n_words < room ? n_words : room};
    offset_ += seg.count;
    stored_ += seg.count;
    if (offset_ == block_size_) {
      // Current block full: the controller points to the next block in the
      // group (round-robin fill order).
      ++current_;
      offset_ = 0;
    }
    return seg;
  }

  unsigned stored() const noexcept { return stored_; }
  unsigned capacity() const noexcept {
    return static_cast<unsigned>(block_ids_.size()) * block_size_;
  }
  bool full() const noexcept { return stored_ >= capacity(); }

  std::span<const unsigned> block_ids() const noexcept { return block_ids_; }

  /// Fill-cursor introspection for checkpoint/restore (src/fault/snapshot.h):
  /// the cursor triple is registered state the FaultTarget plane does not
  /// cover, so snapshots carry it separately.
  unsigned current() const noexcept { return current_; }
  unsigned offset() const noexcept { return offset_; }

  /// Restores a previously captured cursor triple. Throws SimError when the
  /// triple is inconsistent with this group's geometry.
  void restore(unsigned stored, unsigned current, unsigned offset) {
    if (stored > capacity() || current > block_ids_.size() ||
        (current == block_ids_.size() && offset != 0) || offset >= block_size_) {
      throw SimError("BlockAddressController: restored fill cursor out of range");
    }
    stored_ = stored;
    current_ = current;
    offset_ = offset;
  }

  void reset() noexcept {
    stored_ = 0;
    current_ = 0;
    offset_ = 0;
  }

 private:
  std::span<const unsigned> block_ids_;
  unsigned block_size_;
  unsigned stored_ = 0;   ///< Total entries in the group.
  unsigned current_ = 0;  ///< Index into block_ids_ of the block being filled.
  unsigned offset_ = 0;   ///< Fill level of the current block.
};

}  // namespace dspcam::cam
