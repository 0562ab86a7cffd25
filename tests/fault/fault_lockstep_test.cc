// Fault-injection lockstep fuzz: with parity protection on and an active
// injection campaign, the fast eval path must stay bit- and cycle-identical
// to the per-cell DSP48E2 reference - corrupted state, parity flags, scrub
// classification and repaired state included. Two CamUnits differing ONLY in
// EvalMode get the same search stream, two same-seed injectors (which flip
// the exact same bits - proven by the injector determinism test), and
// lockstep scrubbers; every cycle the full observable surface is compared.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/cam/unit.h"
#include "src/common/random.h"
#include "src/fault/injector.h"
#include "src/fault/scrubber.h"
#include "src/fault/targets.h"
#include "tests/cam/testbench.h"

namespace dspcam::fault {
namespace {

struct LockstepParams {
  unsigned data_width;
  unsigned unit_size;
  unsigned block_size;
  double rate;
  unsigned burst;
  unsigned cycles;
  std::uint64_t seed;
};

class FaultLockstep : public ::testing::TestWithParam<LockstepParams> {};

cam::UnitConfig make_config(const LockstepParams& p, cam::EvalMode mode) {
  cam::UnitConfig cfg;
  cfg.block.cell.data_width = p.data_width;
  cfg.block.block_size = p.block_size;
  cfg.block.bus_width = p.data_width * 4;
  cfg.block.parity = true;
  cfg.eval_mode = mode;
  cfg.unit_size = p.unit_size;
  cfg.bus_width = p.data_width * 4;
  return cfg;
}

void expect_same_entry_state(const UnitFaultTarget& ref, const UnitFaultTarget& fast,
                             unsigned cyc) {
  for (std::size_t e = 0; e < ref.entry_count(); ++e) {
    ASSERT_EQ(ref.peek(e), fast.peek(e)) << "cycle " << cyc << " entry " << e;
  }
}

TEST_P(FaultLockstep, CorruptAndRecoverAreBitIdentical) {
  const auto p = GetParam();
  cam::CamUnit ref(make_config(p, cam::EvalMode::kReference));
  cam::CamUnit fast(make_config(p, cam::EvalMode::kFast));

  // Fixed contents: the stream below is search-only, so the golden shadows
  // captured here stay authoritative for the whole run.
  std::vector<cam::Word> words;
  Rng key_rng(p.seed);
  for (unsigned i = 0; i < ref.capacity_per_group() / 2; ++i) {
    words.push_back(key_rng.next_bits(std::min(p.data_width, 10u)));
  }
  cam::test::load_unit(ref, words);
  cam::test::load_unit(fast, words);

  UnitFaultTarget tref(ref), tfast(fast);
  FaultCampaign campaign;
  campaign.seed = p.seed * 7 + 1;
  campaign.rate_per_cycle = p.rate;
  campaign.burst_size = p.burst;
  campaign.include_valid = true;
  campaign.include_parity = true;
  FaultInjector iref(tref, campaign), ifast(tfast, campaign);
  Scrubber sref(tref, {}), sfast(tfast, {});
  sref.capture();
  sfast.capture();

  Rng rng(p.seed);
  unsigned responses = 0;
  unsigned flagged = 0;
  for (unsigned cyc = 0; cyc < p.cycles; ++cyc) {
    if (rng.next_bool(0.6)) {
      cam::UnitRequest req;
      req.op = cam::OpKind::kSearch;
      req.seq = cyc;
      req.keys = {rng.next_bits(std::min(p.data_width, 10u))};
      cam::UnitRequest copy = req;
      ref.issue(std::move(req));
      fast.issue(std::move(copy));
    }
    cam::test::step(ref);
    cam::test::step(fast);

    // Upsets land between clock edges, identically on both models.
    ASSERT_EQ(iref.step(), ifast.step()) << "cycle " << cyc;
    // The background scrubber yields to functional traffic in both worlds.
    ASSERT_EQ(ref.idle(), fast.idle()) << "cycle " << cyc;
    ASSERT_EQ(sref.step(ref.idle()), sfast.step(fast.idle())) << "cycle " << cyc;

    const auto& rr = ref.response();
    const auto& fr = fast.response();
    ASSERT_EQ(rr.has_value(), fr.has_value()) << "cycle " << cyc;
    if (rr.has_value()) {
      ++responses;
      ASSERT_EQ(rr->seq, fr->seq) << "cycle " << cyc;
      ASSERT_EQ(rr->results.size(), fr->results.size()) << "cycle " << cyc;
      for (std::size_t i = 0; i < rr->results.size(); ++i) {
        const auto& r = rr->results[i];
        const auto& f = fr->results[i];
        ASSERT_EQ(r.key, f.key) << "cycle " << cyc;
        ASSERT_EQ(r.hit, f.hit) << "cycle " << cyc;
        ASSERT_EQ(r.global_address, f.global_address) << "cycle " << cyc;
        ASSERT_EQ(r.match_count, f.match_count) << "cycle " << cyc;
        ASSERT_EQ(r.parity_error, f.parity_error) << "cycle " << cyc;
        if (r.parity_error) ++flagged;
      }
    }
    if ((cyc & 255u) == 255u) expect_same_entry_state(tref, tfast, cyc);
  }

  // The campaign must actually have exercised the fault path.
  EXPECT_GT(iref.stats().injected, 0u);
  EXPECT_GT(responses, p.cycles / 4);
  EXPECT_GT(flagged, 0u) << "injection at rate " << p.rate << " over " << p.cycles
                         << " cycles should taint some searches";

  // Scrub classification must agree between the modes...
  EXPECT_EQ(sref.stats().detected, sfast.stats().detected);
  EXPECT_EQ(sref.stats().corrected, sfast.stats().corrected);
  EXPECT_EQ(sref.stats().silent, sfast.stats().silent);

  // ...and a final full pass recovers both models to the same (golden) state.
  EXPECT_EQ(sref.scrub_all(), sfast.scrub_all());
  expect_same_entry_state(tref, tfast, p.cycles);
  for (const cam::Word w : words) {
    const auto r = cam::test::run_unit_search(ref, {w});
    const auto f = cam::test::run_unit_search(fast, {w});
    ASSERT_TRUE(r.results[0].hit) << "recovered contents must match again";
    ASSERT_EQ(r.results[0].hit, f.results[0].hit);
    ASSERT_FALSE(r.results[0].parity_error) << "clean after scrub";
    ASSERT_EQ(f.results[0].parity_error, r.results[0].parity_error);
  }
}

// Constant-initialised, so the struct padding is zero: ctest names each case
// after the byte dump of its parameter, and stack garbage in the padding
// would give the cases new names on every build.
constexpr LockstepParams kCampaigns[] = {
    LockstepParams{32, 4, 32, 0.02, 1, 3000, 11},
    LockstepParams{16, 2, 32, 0.05, 2, 2000, 22},
    LockstepParams{32, 2, 64, 0.01, 4, 2500, 33}};

INSTANTIATE_TEST_SUITE_P(Campaigns, FaultLockstep, ::testing::ValuesIn(kCampaigns));

}  // namespace
}  // namespace dspcam::fault
