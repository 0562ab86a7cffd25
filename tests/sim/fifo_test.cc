#include "src/sim/fifo.h"

#include <gtest/gtest.h>

#include "src/common/error.h"

namespace dspcam::sim {
namespace {

TEST(Fifo, FifoOrdering) {
  Fifo<int> f(4);
  f.push(1);
  f.push(2);
  f.push(3);
  EXPECT_EQ(f.try_pop().value_or(-1), 1);
  EXPECT_EQ(f.try_pop().value_or(-1), 2);
  EXPECT_EQ(f.try_pop().value_or(-1), 3);
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.try_pop().has_value());
}

TEST(Fifo, CapacityEnforced) {
  Fifo<int> f(2);
  f.push(1);
  f.push(2);
  EXPECT_TRUE(f.full());
  EXPECT_THROW(f.push(3), SimError);
}

TEST(Fifo, EmptyAccessThrows) {
  Fifo<int> f(1);
  EXPECT_THROW(f.pop_front(), SimError);
  EXPECT_THROW(f.front(), SimError);
  EXPECT_THROW(static_cast<const Fifo<int>&>(f).front(), SimError);
}

TEST(Fifo, ZeroCapacityRejected) {
  EXPECT_THROW(Fifo<int>(0), SimError);
}

TEST(Fifo, FrontPeeksWithoutConsuming) {
  Fifo<int> f(2);
  f.push(9);
  EXPECT_EQ(f.front(), 9);
  EXPECT_EQ(f.size(), 1u);
  f.front() = 4;  // a consumer may move the front out before pop_front()
  EXPECT_EQ(f.try_pop().value_or(-1), 4);
}

TEST(Fifo, ClearEmpties) {
  Fifo<int> f(3);
  f.push(1);
  f.push(2);
  f.clear();
  EXPECT_TRUE(f.empty());
  f.push(7);
  EXPECT_EQ(f.front(), 7);
  f.pop_front();
  EXPECT_TRUE(f.empty());
}

}  // namespace
}  // namespace dspcam::sim
