// Fault layer unit tests: parity definition, single-plane flips, injector
// determinism and validation, scrub repair/classification, the CamUnit
// FaultTarget adapter, and the end-to-end parity flag through a CamSystem
// driver.
#include "src/fault/fault.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/cam/mask.h"
#include "src/cam/unit.h"
#include "src/common/bitops.h"
#include "src/common/error.h"
#include "src/fault/injector.h"
#include "src/fault/scrubber.h"
#include "src/fault/targets.h"
#include "src/system/cam_system.h"
#include "src/system/driver.h"
#include "tests/cam/testbench.h"

namespace dspcam::fault {
namespace {

/// What peek() returns for a never-written entry of a 32-bit unit.
EntryState empty_entry() {
  EntryState s;
  s.stored = 0;
  s.mask = cam::width_mask(32);
  s.valid = false;
  s.parity = parity_of(s);
  return s;
}

cam::UnitConfig unit_config(cam::EvalMode mode, bool parity) {
  cam::UnitConfig cfg;
  cfg.block.cell.data_width = 32;
  cfg.block.block_size = 32;
  cfg.block.bus_width = 512;
  cfg.block.parity = parity;
  cfg.eval_mode = mode;
  cfg.unit_size = 2;
  cfg.bus_width = 512;
  return cfg;
}

// --- Parity definition. ---

TEST(Parity, OddPopcountOverProtectedPlanes) {
  EXPECT_FALSE(parity_of(0, 0, false));
  EXPECT_TRUE(parity_of(1, 0, false));
  EXPECT_FALSE(parity_of(1, 1, false));
  EXPECT_TRUE(parity_of(1, 1, true));
  EXPECT_TRUE(parity_of(0b111, 0, false));  // odd popcount
  EXPECT_FALSE(parity_of(0b11, 0, false));  // even popcount

  EntryState s;
  s.stored = 0xF0;
  s.mask = 0x0F;
  s.valid = true;
  EXPECT_EQ(parity_of(s), parity_of(0xF0, 0x0F, true));
}

TEST(Parity, AnySingleFlipToggles) {
  const EntryState base{0x1234, 0xFF00FF, true, false};
  const bool p = parity_of(base);
  for (unsigned bit = 0; bit < 24; ++bit) {
    EXPECT_NE(parity_of(base.stored ^ (1ULL << bit), base.mask, base.valid), p);
    EXPECT_NE(parity_of(base.stored, base.mask ^ (1ULL << bit), base.valid), p);
  }
  EXPECT_NE(parity_of(base.stored, base.mask, !base.valid), p);
}

// --- flip(): exactly one plane moves. ---

TEST(FaultTargetFlip, TouchesExactlyOnePlane) {
  cam::CamUnit unit(unit_config(cam::EvalMode::kReference, /*parity=*/true));
  UnitFaultTarget target(unit);
  ASSERT_TRUE(target.parity_protected());
  ASSERT_EQ(target.entry_count(), 64u);
  ASSERT_EQ(target.entry_bits(), 32u);

  const EntryState before = target.peek(5);
  target.flip(5, FaultPlane::kStored, 3);
  EntryState after = target.peek(5);
  EXPECT_EQ(after.stored, before.stored ^ 8u);
  EXPECT_EQ(after.mask, before.mask);
  EXPECT_EQ(after.valid, before.valid);
  EXPECT_EQ(after.parity, before.parity) << "a stored flip must not fix parity";

  target.flip(5, FaultPlane::kMask, 0);
  EXPECT_EQ(target.peek(5).mask, before.mask ^ 1u);
  target.flip(5, FaultPlane::kValid, 17);  // bit ignored for 1-bit planes
  EXPECT_EQ(target.peek(5).valid, !before.valid);
  target.flip(5, FaultPlane::kParity, 0);
  EXPECT_EQ(target.peek(5).parity, !before.parity);

  EXPECT_EQ(target.peek(4), empty_entry()) << "neighbours untouched";
}

TEST(FaultTargetBounds, PeekAndPokePastTheLastEntryThrowSimError) {
  // Both eval modes reject an out-of-range entry the same way, naming the
  // index: peek used to leak std::out_of_range from the block vector.
  for (const auto mode : {cam::EvalMode::kReference, cam::EvalMode::kFast}) {
    cam::CamUnit unit(unit_config(mode, /*parity=*/true));
    UnitFaultTarget target(unit);
    const std::size_t past = target.entry_count();
    EXPECT_NO_THROW(target.peek(past - 1));
    try {
      target.peek(past);
      ADD_FAILURE() << "peek past the last entry did not throw";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(past)), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(target.poke(past, EntryState{}), SimError);
    EXPECT_THROW(unit.block_fill(unit.config().unit_size), SimError);
  }
}

// --- Injector. ---

TEST(Injector, ValidatesCampaignAgainstGeometry) {
  cam::CamUnit unit(unit_config(cam::EvalMode::kFast, /*parity=*/false));
  UnitFaultTarget target(unit);

  FaultCampaign bad_rate;
  bad_rate.rate_per_cycle = 1.5;
  EXPECT_THROW(FaultInjector(target, bad_rate), ConfigError);
  bad_rate.rate_per_cycle = -0.1;
  EXPECT_THROW(FaultInjector(target, bad_rate), ConfigError);

  FaultCampaign bad_burst;
  bad_burst.burst_size = 0;
  EXPECT_THROW(FaultInjector(target, bad_burst), ConfigError);

  FaultCampaign bad_entry;
  bad_entry.entry = target.entry_count();
  EXPECT_THROW(FaultInjector(target, bad_entry), ConfigError);

  FaultCampaign bad_bit;
  bad_bit.bit = target.entry_bits();
  EXPECT_THROW(FaultInjector(target, bad_bit), ConfigError);

  FaultCampaign parity_on_unprotected;
  parity_on_unprotected.plane = FaultPlane::kParity;
  EXPECT_THROW(FaultInjector(target, parity_on_unprotected), ConfigError);

  EXPECT_NO_THROW(FaultInjector(target, FaultCampaign{}));
}

TEST(Injector, SameSeedReproducesSameCorruptionHistory) {
  cam::CamUnit a(unit_config(cam::EvalMode::kFast, /*parity=*/true));
  cam::CamUnit b(unit_config(cam::EvalMode::kFast, /*parity=*/true));
  const std::vector<cam::Word> words = {11, 22, 33, 44, 55, 66, 77, 88};
  cam::test::load_unit(a, words);
  cam::test::load_unit(b, words);

  UnitFaultTarget ta(a), tb(b);
  FaultCampaign campaign;
  campaign.seed = 42;
  campaign.rate_per_cycle = 0.3;
  campaign.burst_size = 2;
  campaign.include_parity = true;
  FaultInjector ia(ta, campaign), ib(tb, campaign);

  unsigned flips = 0;
  for (unsigned cyc = 0; cyc < 500; ++cyc) {
    const unsigned fa = ia.step();
    const unsigned fb = ib.step();
    ASSERT_EQ(fa, fb) << "cycle " << cyc;
    flips += fa;
  }
  EXPECT_GT(flips, 0u) << "rate 0.3 over 500 cycles must fire";
  EXPECT_EQ(ia.stats().injected, ib.stats().injected);
  for (std::size_t e = 0; e < ta.entry_count(); ++e) {
    ASSERT_EQ(ta.peek(e), tb.peek(e)) << "entry " << e;
  }
}

TEST(Injector, OneShotFiresExactlyOnce) {
  cam::CamUnit unit(unit_config(cam::EvalMode::kFast, /*parity=*/false));
  UnitFaultTarget target(unit);
  FaultCampaign campaign;
  campaign.one_shot = true;
  campaign.burst_size = 3;
  FaultInjector inj(target, campaign);
  EXPECT_EQ(inj.step(), 3u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(inj.step(), 0u);
  EXPECT_EQ(inj.stats().injected, 3u);
}

TEST(Injector, TargetedCampaignHitsThePinnedBit) {
  cam::CamUnit unit(unit_config(cam::EvalMode::kReference, /*parity=*/true));
  UnitFaultTarget target(unit);
  const EntryState before = target.peek(5);

  FaultCampaign campaign;
  campaign.one_shot = true;
  campaign.entry = 5;
  campaign.bit = 7;
  campaign.plane = FaultPlane::kStored;
  FaultInjector inj(target, campaign);
  EXPECT_EQ(inj.step(), 1u);

  EXPECT_EQ(target.peek(5).stored, before.stored ^ (1ULL << 7));
  for (std::size_t e = 0; e < target.entry_count(); ++e) {
    if (e != 5) {
      ASSERT_EQ(target.peek(e), empty_entry()) << "entry " << e;
    }
  }
}

// --- Scrubber. ---

TEST(Scrubber, RejectsZeroWidthWalk) {
  cam::CamUnit unit(unit_config(cam::EvalMode::kFast, /*parity=*/true));
  UnitFaultTarget target(unit);
  Scrubber::Config cfg;
  cfg.entries_per_cycle = 0;
  EXPECT_THROW(Scrubber(target, cfg), ConfigError);
}

TEST(Scrubber, RepairsAndClassifiesOnProtectedTarget) {
  cam::CamUnit unit(unit_config(cam::EvalMode::kReference, /*parity=*/true));
  cam::test::load_unit(unit, {100, 200, 300});
  UnitFaultTarget target(unit);
  Scrubber scrub(target, {});
  EXPECT_FALSE(scrub.captured());
  EXPECT_EQ(scrub.scrub_all(), 0u) << "no golden shadow yet - scrubbing is a no-op";
  scrub.capture();
  ASSERT_TRUE(scrub.captured());
  EXPECT_EQ(scrub.scrub_all(), 0u) << "clean target needs no repair";

  const EntryState golden0 = target.peek(0);
  const EntryState golden1 = target.peek(1);
  target.flip(0, FaultPlane::kStored, 4);  // data flip: parity check catches it
  target.flip(1, FaultPlane::kParity, 0);  // parity-bit flip: also visible

  EXPECT_EQ(scrub.scrub_all(), 2u);
  EXPECT_EQ(scrub.stats().corrected, 2u);
  EXPECT_EQ(scrub.stats().detected, 2u);
  EXPECT_EQ(scrub.stats().silent, 0u);
  EXPECT_EQ(target.peek(0), golden0);
  EXPECT_EQ(target.peek(1), golden1);
  EXPECT_TRUE(cam::test::run_unit_search(unit, {100}).results[0].hit)
      << "repaired entry must match again";
}

TEST(Scrubber, EveryCorruptionIsSilentOnUnprotectedTarget) {
  system::CamSystem::Config cfg;
  cfg.unit = unit_config(cam::EvalMode::kFast, /*parity=*/false);
  system::CamSystem sys(cfg);
  system::CamDriver drv(sys);
  drv.store(std::vector<cam::Word>{10, 20, 30});

  FaultTarget* target = sys.fault_target();
  ASSERT_NE(target, nullptr);
  EXPECT_FALSE(target->parity_protected());
  Scrubber scrub(*target, {});
  scrub.capture();

  target->flip(0, FaultPlane::kStored, 2);
  target->flip(2, FaultPlane::kValid, 0);
  EXPECT_EQ(scrub.scrub_all(), 2u);
  EXPECT_EQ(scrub.stats().corrected, 2u);
  EXPECT_EQ(scrub.stats().detected, 0u)
      << "no parity bit - nothing to disagree with";
  EXPECT_EQ(scrub.stats().silent, 2u);
  EXPECT_TRUE(drv.search(10).hit) << "repair restored the entry";
}

TEST(Scrubber, WalksOnlyOnIdleCycles) {
  cam::CamUnit unit(unit_config(cam::EvalMode::kFast, /*parity=*/true));
  cam::test::load_unit(unit, {1, 2, 3, 4});
  UnitFaultTarget target(unit);
  Scrubber::Config cfg;
  cfg.entries_per_cycle = 8;
  Scrubber scrub(target, cfg);
  scrub.capture();
  target.flip(1, FaultPlane::kStored, 0);

  const std::size_t cursor = scrub.cursor();
  EXPECT_EQ(scrub.step(/*idle=*/false), 0u);
  EXPECT_EQ(scrub.cursor(), cursor) << "busy datapath: the walker must not move";

  std::size_t repaired = 0;
  for (std::size_t i = 0; i < target.entry_count() / cfg.entries_per_cycle; ++i) {
    repaired += scrub.step(/*idle=*/true);
  }
  EXPECT_EQ(repaired, 1u);
  EXPECT_EQ(scrub.stats().corrected, 1u);
}

TEST(Scrubber, UpdateGoldenFollowsLegitimateWrites) {
  cam::CamUnit unit(unit_config(cam::EvalMode::kFast, /*parity=*/true));
  cam::test::load_unit(unit, {1, 2});
  UnitFaultTarget target(unit);
  Scrubber scrub(target, {});
  scrub.capture();

  EntryState fresh;
  fresh.stored = 99;
  fresh.mask = cam::width_mask(32);
  fresh.valid = true;
  fresh.parity = parity_of(fresh);
  target.poke(0, fresh);
  scrub.update_golden(0, fresh);
  EXPECT_EQ(scrub.scrub_all(), 0u) << "an intended write must not be repaired away";
  EXPECT_EQ(target.peek(0), fresh);
}

// --- Target adapters. ---

class UnitTargetModes : public ::testing::TestWithParam<cam::EvalMode> {};

TEST_P(UnitTargetModes, PeekPokeRoundTripMatchesBlockState) {
  cam::CamUnit unit(unit_config(GetParam(), /*parity=*/true));
  cam::test::load_unit(unit, {5, 6, 7});
  UnitFaultTarget target(unit);

  const EntryState e1 = target.peek(1);
  EXPECT_EQ(e1.stored, 6u);
  EXPECT_TRUE(e1.valid);
  EXPECT_EQ(e1.mask, cam::width_mask(32));
  EXPECT_EQ(e1.parity, parity_of(e1)) << "legit write keeps parity consistent";

  EntryState poked;
  poked.stored = 0xABCD;
  poked.mask = cam::width_mask(32);
  poked.valid = true;
  poked.parity = parity_of(poked);
  target.poke(1, poked);
  EXPECT_EQ(target.peek(1), poked);
  EXPECT_TRUE(cam::test::run_unit_search(unit, {0xABCD}).results[0].hit);
  EXPECT_FALSE(cam::test::run_unit_search(unit, {6}).results[0].hit);
}

INSTANTIATE_TEST_SUITE_P(BothModes, UnitTargetModes,
                         ::testing::Values(cam::EvalMode::kReference,
                                           cam::EvalMode::kFast));

// --- End to end: parity flags corrupted matches through the system. ---

TEST(SystemIntegration, ParityFlagsCorruptedSearchesUntilScrubbed) {
  system::CamSystem::Config cfg;
  cfg.unit.block.cell.data_width = 32;
  cfg.unit.block.block_size = 32;
  cfg.unit.block.bus_width = 512;
  cfg.unit.block.parity = true;
  cfg.unit.unit_size = 4;
  cfg.unit.bus_width = 512;
  system::CamSystem sys(cfg);
  system::CamDriver drv(sys);
  drv.store(std::vector<cam::Word>{1, 2, 3});

  FaultTarget* target = sys.fault_target();
  ASSERT_NE(target, nullptr);
  ASSERT_TRUE(target->parity_protected());
  Scrubber scrub(*target, {});
  scrub.capture();

  EXPECT_FALSE(drv.search(2).parity_error) << "clean array: no flag";

  target->flip(0, FaultPlane::kStored, 9);
  const auto corrupted = drv.search(2);
  EXPECT_TRUE(corrupted.hit) << "entry 1 still matches; entry 0 is the corrupt one";
  EXPECT_TRUE(corrupted.parity_error)
      << "a failing entry in a contributing block must taint the result";
  EXPECT_GE(sys.stats().parity_flagged, 1u);

  EXPECT_EQ(scrub.scrub_all(), 1u);
  EXPECT_EQ(scrub.stats().detected, 1u);
  const auto repaired = drv.search(2);
  EXPECT_TRUE(repaired.hit);
  EXPECT_FALSE(repaired.parity_error);
  EXPECT_TRUE(drv.search(1).hit) << "the corrupted entry itself is restored";
}

TEST(FaultStats, SummaryAndAccumulate) {
  sim::FaultStats a{3, 2, 1, 0};
  const sim::FaultStats b{1, 1, 1, 1};
  a += b;
  EXPECT_EQ(a.injected, 4u);
  EXPECT_EQ(a.detected, 3u);
  EXPECT_EQ(a.corrected, 2u);
  EXPECT_EQ(a.silent, 1u);
  const std::string s = a.summary();
  EXPECT_NE(s.find("injected=4"), std::string::npos) << s;
  EXPECT_NE(s.find("silent=1"), std::string::npos) << s;
}

}  // namespace
}  // namespace dspcam::fault
