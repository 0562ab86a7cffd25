// Randomized cross-layer stress tests: long interleaved op streams driven
// into the cycle-accurate CamUnit and mirrored into the software reference,
// with strict agreement demanded on every response - including around
// resets injected mid-stream and back-to-back update/search mixes that
// exercise the pipeline skew paths.
#include <gtest/gtest.h>

#include <deque>

#include "src/cam/reference_cam.h"
#include "src/cam/unit.h"
#include "src/common/random.h"
#include "tests/cam/testbench.h"

namespace dspcam::cam {
namespace {

using test::step;

struct FuzzParams {
  CamKind kind;
  unsigned data_width;
  unsigned unit_size;
  unsigned block_size;
  unsigned groups;
  std::uint64_t seed;
};

class UnitFuzz : public ::testing::TestWithParam<FuzzParams> {};

// Drives a fully pipelined random stream: every cycle may carry one beat
// (update, search, or reset), with no waiting between operations. Expected
// results are computed against the reference model *at issue time* (the
// pipeline guarantees ordering, and an update issued before a search is
// visible to it: update latency 6 < search data-read stage, and same-cycle
// issue is impossible - one beat per cycle).
TEST_P(UnitFuzz, PipelinedRandomStreamMatchesReference) {
  const auto p = GetParam();
  UnitConfig cfg;
  cfg.block.cell.kind = p.kind;
  cfg.block.cell.data_width = p.data_width;
  cfg.block.block_size = p.block_size;
  cfg.block.bus_width = p.data_width * 8;  // 8 words/beat at any width
  cfg.unit_size = p.unit_size;
  cfg.bus_width = p.data_width * 8;
  cfg.initial_groups = p.groups;
  cfg = UnitConfig::with_auto_timing(cfg);
  CamUnit unit(cfg);
  ReferenceCam ref(p.kind, p.data_width, unit.capacity_per_group());
  Rng rng(p.seed);

  struct Expected {
    std::uint64_t seq;
    std::vector<Word> keys;
    std::vector<ReferenceCam::Result> want;
    // A reset was issued behind this search. If the search was already past
    // the blocks it still delivers (with pre-reset data, which `want`
    // captured); if the reset caught it in the pipeline it is flushed and
    // no response ever arrives. Both are legal.
    bool flushable = false;
  };
  std::deque<Expected> outstanding;
  std::uint64_t seq = 1;
  unsigned checked = 0;

  const unsigned value_bits = std::min(p.data_width, 9u);  // dense key space
  for (unsigned cyc = 0; cyc < 600; ++cyc) {
    const double dice = rng.next_double();
    if (dice < 0.02) {
      UnitRequest req;
      req.op = OpKind::kReset;
      req.seq = seq++;
      unit.issue(std::move(req));
      ref.reset();
      for (auto& e : outstanding) e.flushable = true;
    } else if (dice < 0.40 && !ref.full()) {
      UnitRequest req;
      req.op = OpKind::kUpdate;
      req.seq = seq++;
      const unsigned n = 1 + static_cast<unsigned>(rng.next_below(8));
      std::vector<std::uint64_t> masks;
      for (unsigned i = 0; i < n; ++i) {
        const Word v = rng.next_bits(value_bits);
        req.words.push_back(v);
        if (p.kind == CamKind::kTernary) {
          masks.push_back(tcam_mask(p.data_width, rng.next_bool(0.3)
                                                      ? low_bits(4)
                                                      : 0));
        } else if (p.kind == CamKind::kRange) {
          const unsigned span = static_cast<unsigned>(rng.next_below(4));
          masks.push_back(rmcam_mask(p.data_width, v & ~low_bits(span), span));
          req.words.back() = v & ~low_bits(span);
        }
      }
      if (!masks.empty()) req.masks = masks;
      // Mirror into the reference with identical truncation.
      const unsigned accepted =
          ref.update({req.words.begin(), req.words.end()}, req.masks);
      (void)accepted;
      unit.issue(std::move(req));
    } else if (dice < 0.95) {
      UnitRequest req;
      req.op = OpKind::kSearch;
      req.seq = seq;
      Expected exp;
      exp.seq = seq;
      const unsigned nk = 1 + static_cast<unsigned>(rng.next_below(p.groups));
      for (unsigned i = 0; i < nk; ++i) {
        const Word k = rng.next_bits(value_bits);
        req.keys.push_back(k);
        exp.keys.push_back(k);
        exp.want.push_back(ref.search(k));
      }
      outstanding.push_back(std::move(exp));
      unit.issue(std::move(req));
      ++seq;
    }
    // else: idle cycle (pipeline bubble)

    step(unit);

    if (unit.response().has_value()) {
      const auto& resp = *unit.response();
      // Skip flushed searches that never delivered (younger than a reset).
      while (!outstanding.empty() && outstanding.front().flushable &&
             outstanding.front().seq != resp.seq) {
        outstanding.pop_front();
      }
      ASSERT_FALSE(outstanding.empty()) << "unexpected response seq " << resp.seq;
      const auto& exp = outstanding.front();
      ASSERT_EQ(resp.seq, exp.seq) << "responses out of order";
      ASSERT_EQ(resp.results.size(), exp.keys.size());
      for (std::size_t i = 0; i < exp.keys.size(); ++i) {
        ASSERT_EQ(resp.results[i].hit, exp.want[i].hit)
            << "cycle " << cyc << " seq " << resp.seq << " key " << exp.keys[i];
        ++checked;
      }
      outstanding.pop_front();
    }
  }
  // Everything still outstanding must be explainable: flushed by a reset or
  // within the pipeline depth of the stream's end.
  unsigned unexplained = 0;
  for (const auto& e : outstanding) {
    if (!e.flushable) ++unexplained;
  }
  EXPECT_LE(unexplained, unit.search_latency());
  EXPECT_GT(checked, 100u) << "stream produced too few checked results";
}

// Constant-initialised, so the struct padding is zero: ctest names each case
// after the byte dump of its parameter, and stack garbage in the padding
// would give the cases new names on every build.
constexpr FuzzParams kFuzzConfigs[] = {
    FuzzParams{CamKind::kBinary, 32, 4, 32, 1, 11},
    FuzzParams{CamKind::kBinary, 32, 4, 32, 4, 22},
    FuzzParams{CamKind::kBinary, 16, 8, 64, 2, 33},
    FuzzParams{CamKind::kBinary, 48, 2, 32, 1, 44},
    FuzzParams{CamKind::kTernary, 16, 4, 32, 1, 55},
    FuzzParams{CamKind::kTernary, 32, 4, 32, 2, 66},
    FuzzParams{CamKind::kRange, 16, 4, 32, 1, 77},
    FuzzParams{CamKind::kBinary, 8, 16, 32, 8, 88},
};

INSTANTIATE_TEST_SUITE_P(Configs, UnitFuzz, ::testing::ValuesIn(kFuzzConfigs));

// Address agreement under the priority scheme: the reported global address
// must equal the reference's insertion index (group-0 contiguous layout).
TEST(UnitFuzzAddress, PriorityAddressesMatchInsertionOrder) {
  UnitConfig cfg;
  cfg.block.cell.data_width = 16;
  cfg.block.block_size = 32;
  cfg.block.bus_width = 512;
  cfg.unit_size = 4;
  cfg.bus_width = 512;
  CamUnit unit(cfg);
  ReferenceCam ref(CamKind::kBinary, 16, unit.capacity_per_group());
  Rng rng(123);

  // Deliberately insert duplicates so first-match priority is exercised.
  std::vector<Word> values;
  for (int i = 0; i < 100; ++i) values.push_back(rng.next_bits(6));
  test::load_unit(unit, values);
  ref.update(values);

  for (int probe = 0; probe < 200; ++probe) {
    const Word key = rng.next_bits(6);
    const auto got = test::run_unit_search(unit, {key});
    const auto want = ref.search(key);
    ASSERT_EQ(got.results[0].hit, want.hit);
    if (want.hit) {
      ASSERT_EQ(got.results[0].global_address, want.first_index) << "key " << key;
    }
  }
}

// Data-width boundary fuzz: the masked high bits must never influence any
// result at any width.
class WidthBoundary : public ::testing::TestWithParam<unsigned> {};

TEST_P(WidthBoundary, HighGarbageNeverLeaks) {
  const unsigned width = GetParam();
  UnitConfig cfg;
  cfg.block.cell.data_width = width;
  cfg.block.block_size = 32;
  cfg.block.bus_width = width * 8;
  cfg.unit_size = 2;
  cfg.bus_width = width * 8;
  CamUnit unit(cfg);
  Rng rng(width);

  std::vector<Word> clean;
  std::vector<Word> dirty;
  for (int i = 0; i < 10; ++i) {
    const Word v = rng.next_bits(width);
    clean.push_back(v);
    dirty.push_back(v | (~Word{0} << width));  // garbage above the width
  }
  test::load_unit(unit, dirty);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_TRUE(test::run_unit_search(unit, {clean[i]}).results[0].hit) << i;
    const Word dirty_key = clean[i] | (Word{0xA5} << width);
    EXPECT_TRUE(test::run_unit_search(unit, {dirty_key}).results[0].hit) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthBoundary, ::testing::Values(8u, 16u, 24u, 32u));

}  // namespace
}  // namespace dspcam::cam
