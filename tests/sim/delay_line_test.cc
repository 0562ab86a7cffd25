#include "src/sim/delay_line.h"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/error.h"

namespace dspcam::sim {
namespace {

TEST(DelayLine, ValueEmergesAfterExactlyNStages) {
  // A value pushed during commit c emerges after commit c+stages.
  DelayLine<int> dl(3);
  dl.push(42);
  dl.shift();  // commit 0 (ingests the push)
  EXPECT_FALSE(dl.output().has_value());
  dl.shift();  // commit 1
  EXPECT_FALSE(dl.output().has_value());
  dl.shift();  // commit 2
  EXPECT_FALSE(dl.output().has_value());
  dl.shift();  // commit 3 = 0 + stages
  EXPECT_EQ(dl.output().value(), 42);
  dl.shift();  // commit 4: bubble follows
  EXPECT_FALSE(dl.output().has_value());
}

TEST(DelayLine, PipelinedStreamKeepsOrderAtIIOne) {
  DelayLine<int> dl(2);
  for (int i = 0; i < 10; ++i) {
    dl.push(i);
    dl.shift();
    if (i >= 2) {
      ASSERT_TRUE(dl.output().has_value());
      EXPECT_EQ(dl.output().value(), i - 2);
    } else {
      EXPECT_FALSE(dl.output().has_value());
    }
  }
}

TEST(DelayLine, BubblesTravelBetweenValues) {
  DelayLine<int> dl(2);
  dl.push(1);
  dl.shift();
  dl.shift();  // bubble pushed
  dl.push(2);
  dl.shift();
  EXPECT_EQ(dl.output().value(), 1);
  dl.shift();
  EXPECT_FALSE(dl.output().has_value());  // the bubble
  dl.shift();
  EXPECT_EQ(dl.output().value(), 2);
}

TEST(DelayLine, DoublePushIsAnError) {
  DelayLine<int> dl(1);
  dl.push(1);
  EXPECT_THROW(dl.push(2), SimError);
}

TEST(DelayLine, ZeroStagesIsAnError) {
  EXPECT_THROW(DelayLine<int>(0), SimError);
}

TEST(DelayLine, ClearDrainsEverything) {
  DelayLine<int> dl(3);
  dl.push(5);
  dl.shift();
  EXPECT_FALSE(dl.drained());
  dl.clear();
  EXPECT_TRUE(dl.drained());
  for (int i = 0; i < 5; ++i) {
    dl.shift();
    EXPECT_FALSE(dl.output().has_value());
  }
}

TEST(DelayLine, DrainedTracksInFlightValues) {
  DelayLine<int> dl(2);
  EXPECT_TRUE(dl.drained());
  dl.push(1);
  EXPECT_FALSE(dl.drained());  // staged input counts
  dl.shift();
  EXPECT_FALSE(dl.drained());
  dl.shift();
  EXPECT_FALSE(dl.drained());  // output holds the value after commit 0+2
  dl.shift();
  EXPECT_FALSE(dl.drained());  // ...and is still readable this cycle
  dl.shift();
  EXPECT_TRUE(dl.drained());
}

// The registers are a ring indexed from a moving head. Against a naive
// shift-every-stage model, over several laps of the ring with bubbles:
// peek_last() always announces the coming output, stealing the output's
// buffer leaves the stages intact, and a mid-stream clear() empties every
// stage so the next value takes exactly N shifts to emerge again.
TEST(DelayLine, RingMatchesShiftRegisterModel) {
  using Payload = std::vector<int>;
  for (unsigned stages = 1; stages <= 5; ++stages) {
    SCOPED_TRACE(stages);
    DelayLine<Payload> dl(stages);
    std::deque<std::optional<Payload>> model(stages);  // front = first stage
    const unsigned cycles = 4 * stages + 7;
    const unsigned clear_at = 2 * stages + 1;
    for (unsigned c = 0; c < cycles; ++c) {
      if (c == clear_at) {
        dl.clear();
        for (auto& r : model) r.reset();
        ASSERT_TRUE(dl.drained());
        // A fresh value: N shifts after the one that ingests it.
        dl.push({-1});
        for (unsigned k = 0; k < stages; ++k) {
          dl.shift();
          ASSERT_FALSE(dl.output().has_value()) << "clear left a stage occupied";
        }
        dl.shift();
        ASSERT_TRUE(dl.output().has_value());
        ASSERT_EQ(*dl.output(), Payload{-1});
        ASSERT_TRUE(dl.peek_last() == model.back());
        continue;
      }
      std::optional<Payload> in;
      if (c % 3 != 1) in = Payload{static_cast<int>(c), static_cast<int>(c) * 7};
      if (in) dl.push(*in);
      const std::optional<Payload> announced = dl.peek_last();
      ASSERT_TRUE(announced == model.back()) << "cycle " << c;
      dl.shift();
      model.push_front(std::move(in));
      const std::optional<Payload> want = std::move(model.back());
      model.pop_back();
      ASSERT_TRUE(dl.output() == want) << "cycle " << c;
      ASSERT_TRUE(dl.output() == announced) << "cycle " << c;
      // Consumers may take the emerged buffer; the stages must not notice.
      if (dl.mutable_output().has_value() && c % 2 == 0) {
        const Payload stolen = std::move(*dl.mutable_output());
        ASSERT_EQ(stolen, *want);
      }
    }
  }
}

}  // namespace
}  // namespace dspcam::sim
