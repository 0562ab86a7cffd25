// RingQueue backs the engine's reorder buffers and sim::Fifo, so its FIFO
// order, front-relative indexing and element release must survive the ring
// wrapping and growing with the head anywhere in the slot array.
#include "src/common/ring_queue.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

namespace dspcam {
namespace {

TEST(RingQueue, MatchesDequeThroughWrapAndGrowth) {
  RingQueue<std::vector<int>> ring;
  std::deque<std::vector<int>> model;
  int next = 0;
  // Depth ramps up and down so growth happens with the head mid-array.
  for (int round = 0; round < 6; ++round) {
    const int pushes = 5 + 7 * round;
    for (int i = 0; i < pushes; ++i) {
      ring.push_back({next, -next});
      model.push_back({next, -next});
      ++next;
    }
    ring.pop_back();  // drops the newest, wherever the ring has wrapped it
    model.pop_back();
    for (int i = 0; i < pushes - 4; ++i) {
      ASSERT_EQ(ring.front(), model.front());
      ring.pop_front();
      model.pop_front();
    }
    ASSERT_EQ(ring.size(), model.size());
    for (std::size_t i = 0; i < model.size(); ++i) ASSERT_EQ(ring[i], model[i]);
    std::size_t i = 0;
    for (const auto& v : ring) ASSERT_EQ(v, model[i++]);
    ASSERT_EQ(i, model.size());
  }
  EXPECT_THROW(ring.at(ring.size()), std::out_of_range);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  ring.push_back({1});
  EXPECT_EQ(ring.front(), std::vector<int>{1});
}

TEST(RingQueue, PopAndClearReleaseElements) {
  const auto token = std::make_shared<int>(0);
  RingQueue<std::shared_ptr<int>> ring;
  for (int i = 0; i < 3; ++i) ring.push_back(token);
  EXPECT_EQ(token.use_count(), 4);
  ring.pop_front();
  EXPECT_EQ(token.use_count(), 3);
  ring.pop_back();
  EXPECT_EQ(token.use_count(), 2);
  ring.clear();
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace dspcam
