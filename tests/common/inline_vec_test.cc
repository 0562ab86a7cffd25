#include "src/common/inline_vec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace dspcam {
namespace {

using Vec = InlineVec<std::uint64_t, 4>;

std::vector<std::uint64_t> contents(const Vec& v) { return {v.begin(), v.end()}; }

TEST(InlineVec, StaysInlineUpToNThenSpills) {
  Vec v;
  EXPECT_TRUE(v.empty());
  for (std::uint64_t i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  v.push_back(4);
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(contents(v), (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  // A spilled vector keeps its heap capacity through clear() and resize().
  const std::size_t cap = v.capacity();
  v.clear();
  v.resize(3);
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(v.capacity(), cap);
  EXPECT_EQ(contents(v), (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST(InlineVec, CopyAndMoveCarryTheElementsInlineOrSpilled) {
  for (const std::size_t n : {std::size_t{3}, std::size_t{9}}) {
    Vec src;
    for (std::uint64_t i = 0; i < n; ++i) src.push_back(10 + i);
    const Vec copy = src;
    EXPECT_EQ(copy, src);
    Vec assigned{7};
    assigned = src;
    EXPECT_EQ(assigned, src);
    Vec moved = std::move(src);
    EXPECT_EQ(moved, copy);
    EXPECT_TRUE(src.empty());  // a moved-from vector is empty and inline
    EXPECT_TRUE(src.is_inline());
    Vec target{1, 2};
    target = std::move(moved);
    EXPECT_EQ(target, copy) << n << " elements";
    // Moved-from vectors are reusable.
    moved.push_back(5);
    EXPECT_EQ(contents(moved), (std::vector<std::uint64_t>{5}));
  }
}

TEST(InlineVec, AssignConvertsAndInitializerListsReplace) {
  const std::vector<std::uint32_t> ids{3, 1, 4, 1, 5, 9};
  Vec v;
  v.assign(ids.begin(), ids.end());
  EXPECT_EQ(contents(v), (std::vector<std::uint64_t>{3, 1, 4, 1, 5, 9}));
  v = {42};
  EXPECT_EQ(contents(v), (std::vector<std::uint64_t>{42}));
  EXPECT_EQ(v.front(), 42u);
  EXPECT_EQ(v.back(), 42u);
  EXPECT_THROW(v.at(1), std::out_of_range);
}

}  // namespace
}  // namespace dspcam
