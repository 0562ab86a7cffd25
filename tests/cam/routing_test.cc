#include "src/cam/routing.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace dspcam::cam {
namespace {

std::vector<unsigned> ids(std::span<const unsigned> blocks) {
  return {blocks.begin(), blocks.end()};
}

/// Claims `n` words run by run, spilling across blocks, the way the unit's
/// append dispatch does.
std::vector<BlockAddressController::Segment> allocate(BlockAddressController& bac,
                                                      unsigned n) {
  std::vector<BlockAddressController::Segment> segs;
  while (n > 0) {
    const BlockAddressController::Segment seg = bac.claim(n);
    if (seg.count == 0) break;
    segs.push_back(seg);
    n -= seg.count;
  }
  return segs;
}

TEST(RoutingTable, DefaultContiguousMapping) {
  RoutingTable rt(8, 4);
  EXPECT_EQ(rt.blocks(), 8u);
  EXPECT_EQ(rt.groups(), 4u);
  EXPECT_EQ(rt.group_of(0), 0u);
  EXPECT_EQ(rt.group_of(1), 0u);
  EXPECT_EQ(rt.group_of(2), 1u);
  EXPECT_EQ(rt.group_of(7), 3u);
  EXPECT_EQ(ids(rt.blocks_of(0)), (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(ids(rt.blocks_of(3)), (std::vector<unsigned>{6, 7}));
}

TEST(RoutingTable, DivisibilityEnforced) {
  EXPECT_THROW(RoutingTable(8, 3), ConfigError);
  EXPECT_THROW(RoutingTable(8, 0), ConfigError);
  EXPECT_THROW(RoutingTable(0, 1), ConfigError);
  RoutingTable rt(8, 2);
  EXPECT_THROW(rt.rebuild(5), ConfigError);
  EXPECT_NO_THROW(rt.rebuild(8));
  EXPECT_EQ(rt.groups(), 8u);
}

TEST(RoutingTable, RebuildRedistributes) {
  RoutingTable rt(8, 1);
  EXPECT_EQ(rt.blocks_of(0).size(), 8u);
  rt.rebuild(4);
  for (unsigned g = 0; g < 4; ++g) EXPECT_EQ(rt.blocks_of(g).size(), 2u);
}

TEST(RoutingTable, RemapMovesABlock) {
  RoutingTable rt(8, 4);
  rt.remap(2, 0);  // group 1 loses block 2
  EXPECT_EQ(rt.group_of(2), 0u);
  EXPECT_EQ(ids(rt.blocks_of(0)), (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(ids(rt.blocks_of(1)), (std::vector<unsigned>{3}));
}

TEST(RoutingTable, RemapAppendsToTheTargetGroupInEitherDirection) {
  RoutingTable rt(8, 4);
  rt.remap(0, 3);  // forward past two groups
  EXPECT_EQ(ids(rt.blocks_of(0)), (std::vector<unsigned>{1}));
  EXPECT_EQ(ids(rt.blocks_of(1)), (std::vector<unsigned>{2, 3}));
  EXPECT_EQ(ids(rt.blocks_of(2)), (std::vector<unsigned>{4, 5}));
  EXPECT_EQ(ids(rt.blocks_of(3)), (std::vector<unsigned>{6, 7, 0}));
  rt.remap(6, 1);  // backward past one group
  EXPECT_EQ(ids(rt.blocks_of(1)), (std::vector<unsigned>{2, 3, 6}));
  EXPECT_EQ(ids(rt.blocks_of(2)), (std::vector<unsigned>{4, 5}));
  EXPECT_EQ(ids(rt.blocks_of(3)), (std::vector<unsigned>{7, 0}));
  EXPECT_EQ(rt.group_of(6), 1u);
  rt.rebuild(2);  // back to contiguous runs
  EXPECT_EQ(ids(rt.blocks_of(1)), (std::vector<unsigned>{4, 5, 6, 7}));
  EXPECT_EQ(rt.group_of(0), 0u);
}

TEST(RoutingTable, RemapCannotEmptyAGroup) {
  RoutingTable rt(4, 4);  // one block per group
  EXPECT_THROW(rt.remap(0, 1), ConfigError);
}

TEST(RoutingTable, RemapBoundsChecked) {
  RoutingTable rt(4, 2);
  EXPECT_THROW(rt.remap(9, 0), ConfigError);
  EXPECT_THROW(rt.remap(0, 9), ConfigError);
  EXPECT_THROW(rt.group_of(4), ConfigError);
  EXPECT_THROW(rt.blocks_of(2), ConfigError);
}

TEST(BlockAddressController, SequentialFillThenSpill) {
  const std::vector<unsigned> blocks{4, 5, 6};
  BlockAddressController bac(blocks, 8);
  auto segs = allocate(bac, 6);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].block, 4u);
  EXPECT_EQ(segs[0].count, 6u);
  // 2 slots left in block 4; 5 more words spill into block 5.
  segs = allocate(bac, 7);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].block, 4u);
  EXPECT_EQ(segs[0].count, 2u);
  EXPECT_EQ(segs[1].block, 5u);
  EXPECT_EQ(segs[1].count, 5u);
  EXPECT_EQ(bac.stored(), 13u);
}

TEST(BlockAddressController, StopsWhenGroupFull) {
  const std::vector<unsigned> blocks{0, 1};
  BlockAddressController bac(blocks, 4);
  auto segs = allocate(bac, 10);  // capacity is 8
  unsigned total = 0;
  for (const auto& s : segs) total += s.count;
  EXPECT_EQ(total, 8u);
  EXPECT_TRUE(bac.full());
  EXPECT_TRUE(allocate(bac, 1).empty());
}

TEST(BlockAddressController, ExactBlockBoundary) {
  const std::vector<unsigned> blocks{0, 1};
  BlockAddressController bac(blocks, 4);
  auto segs = allocate(bac, 4);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].count, 4u);
  segs = allocate(bac, 1);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].block, 1u) << "controller advanced to the next block";
}

TEST(BlockAddressController, ResetRestartsFromFirstBlock) {
  const std::vector<unsigned> blocks{3, 4};
  BlockAddressController bac(blocks, 2);
  allocate(bac, 3);
  bac.reset();
  EXPECT_EQ(bac.stored(), 0u);
  auto segs = allocate(bac, 1);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].block, 3u);
}

TEST(BlockAddressController, InvalidConstruction) {
  const unsigned one[] = {0};
  EXPECT_THROW(BlockAddressController({}, 4), ConfigError);
  EXPECT_THROW(BlockAddressController(one, 0), ConfigError);
}

}  // namespace
}  // namespace dspcam::cam
