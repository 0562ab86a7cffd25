#include "src/cam/routing.h"

#include <algorithm>
#include <string>

namespace dspcam::cam {

RoutingTable::RoutingTable(unsigned n_blocks, unsigned n_groups) : n_blocks_(n_blocks) {
  if (n_blocks == 0) throw ConfigError("RoutingTable: need at least one block");
  table_.resize(3 * std::size_t{n_blocks} + 1);
  rebuild(n_groups);
}

void RoutingTable::rebuild(unsigned n_groups) {
  if (n_groups == 0 || n_blocks_ % n_groups != 0) {
    throw ConfigError("RoutingTable: group count " + std::to_string(n_groups) +
                      " must divide the block count " + std::to_string(n_blocks_));
  }
  const unsigned per_group = n_blocks_ / n_groups;
  n_groups_ = n_groups;
  for (unsigned b = 0; b < n_blocks_; ++b) {
    block_to_group()[b] = b / per_group;
    order()[b] = b;
  }
  for (unsigned g = 0; g <= n_groups; ++g) group_start()[g] = g * per_group;
}

unsigned RoutingTable::group_of(unsigned block) const {
  if (block >= blocks()) throw ConfigError("RoutingTable: block id out of range");
  return table_[block];
}

std::span<const unsigned> RoutingTable::blocks_of(unsigned group) const {
  if (group >= groups()) throw ConfigError("RoutingTable: group id out of range");
  const unsigned* start = group_start();
  return {table_.data() + n_blocks_ + start[group], start[group + 1] - start[group]};
}

void RoutingTable::remap(unsigned block, unsigned group) {
  if (block >= blocks()) throw ConfigError("RoutingTable: block id out of range");
  if (group >= groups()) throw ConfigError("RoutingTable: group id out of range");
  const unsigned from = block_to_group()[block];
  if (from == group) return;
  unsigned* start = group_start();
  if (start[from + 1] - start[from] == 1) {
    throw ConfigError("RoutingTable: remap would leave group " +
                      std::to_string(from) + " empty");
  }
  // Move the block to the end of its new group's run; the runs in between
  // shift by one slot towards the gap it leaves.
  unsigned* const ord = order();
  unsigned* const pos = std::find(ord + start[from], ord + start[from + 1], block);
  if (group > from) {
    std::rotate(pos, pos + 1, ord + start[group + 1]);
    for (unsigned g = from + 1; g <= group; ++g) --start[g];
  } else {
    std::rotate(ord + start[group + 1], pos, pos + 1);
    for (unsigned g = group + 1; g <= from; ++g) ++start[g];
  }
  block_to_group()[block] = group;
}

BlockAddressController::BlockAddressController(std::span<const unsigned> block_ids,
                                               unsigned block_size)
    : block_ids_(block_ids), block_size_(block_size) {
  if (block_ids_.empty()) throw ConfigError("BlockAddressController: empty group");
  if (block_size_ == 0) throw ConfigError("BlockAddressController: zero block size");
}

}  // namespace dspcam::cam
