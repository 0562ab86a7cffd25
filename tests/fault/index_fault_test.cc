// The exact-match index under fire (DESIGN.md §11): a fast CamSystem whose
// plane is indexed and a reference one, both parity-protected, take the
// same search stream and the same same-seed upsets of the stored word,
// valid flag and parity bit - every one of which leaves the fast plane
// indexed but stale. Every cycle the full observable surface - responses
// with parity flags, entry state at checkpoints, scrub classification -
// must agree bit for bit, through corruption AND recovery.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/fault/injector.h"
#include "src/fault/scrubber.h"
#include "src/system/cam_system.h"

namespace dspcam::fault {
namespace {

/// 4 blocks x 64 cells in one group: one 256-entry binary plane, indexed
/// on the fast side.
system::CamSystem::Config make_config(cam::EvalMode mode) {
  system::CamSystem::Config cfg;
  cfg.unit.block.cell.data_width = 32;
  cfg.unit.block.block_size = 64;
  cfg.unit.block.bus_width = 128;
  cfg.unit.block.parity = true;
  cfg.unit.eval_mode = mode;
  cfg.unit.unit_size = 4;
  cfg.unit.bus_width = 128;
  return cfg;
}

void load_words(system::CamSystem& sys, const std::vector<cam::Word>& words) {
  const unsigned per_beat = sys.words_per_beat();
  for (std::size_t at = 0; at < words.size(); at += per_beat) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kUpdate;
    for (std::size_t i = at; i < words.size() && i < at + per_beat; ++i) {
      req.words.push_back(words[i]);
    }
    ASSERT_TRUE(sys.try_submit(std::move(req)));
  }
  for (unsigned guard = 0; guard < 256 && !sys.idle(); ++guard) sys.step();
  ASSERT_TRUE(sys.idle());
  while (sys.try_pop_ack().has_value()) {
  }
}

void expect_same_entry_state(const FaultTarget& a, const FaultTarget& b,
                             unsigned cyc) {
  ASSERT_EQ(a.entry_count(), b.entry_count());
  for (std::size_t e = 0; e < a.entry_count(); ++e) {
    ASSERT_EQ(a.peek(e), b.peek(e)) << "cycle " << cyc << " entry " << e;
  }
}

void expect_same_responses(system::CamSystem& fast, system::CamSystem& ref,
                           unsigned cyc, unsigned& responses, unsigned& flagged) {
  for (;;) {
    auto rf = fast.try_pop_response();
    auto rp = ref.try_pop_response();
    ASSERT_EQ(rf.has_value(), rp.has_value()) << "cycle " << cyc;
    if (!rf.has_value()) break;
    ++responses;
    ASSERT_EQ(rf->seq, rp->seq) << "cycle " << cyc;
    ASSERT_EQ(rf->results.size(), rp->results.size()) << "cycle " << cyc;
    for (std::size_t i = 0; i < rf->results.size(); ++i) {
      const auto& f = rf->results[i];
      const auto& p = rp->results[i];
      ASSERT_EQ(f.key, p.key) << "cycle " << cyc << " seq " << rf->seq;
      ASSERT_EQ(f.hit, p.hit) << "cycle " << cyc << " seq " << rf->seq;
      ASSERT_EQ(f.global_address, p.global_address)
          << "cycle " << cyc << " seq " << rf->seq;
      ASSERT_EQ(f.match_count, p.match_count)
          << "cycle " << cyc << " seq " << rf->seq;
      ASSERT_EQ(f.parity_error, p.parity_error)
          << "cycle " << cyc << " seq " << rf->seq;
      if (f.parity_error) ++flagged;
    }
  }
}

TEST(IndexFaultLockstep, CorruptAndRecoverMatchReferenceBitForBit) {
  constexpr unsigned kCycles = 3000;
  constexpr std::uint64_t kSeed = 77;
  system::CamSystem fast(make_config(cam::EvalMode::kFast));
  system::CamSystem ref(make_config(cam::EvalMode::kReference));
  ASSERT_TRUE(fast.unit().group_indexed(0));

  // Fixed contents with duplicates; the stream below is search-only, so the
  // golden shadows captured here stay authoritative for the whole run
  // (scrub repairs must never fight legitimate writes).
  std::vector<cam::Word> words;
  Rng key_rng(kSeed);
  for (unsigned i = 0; i < 160; ++i) words.push_back(key_rng.next_bits(6));
  load_words(fast, words);
  load_words(ref, words);

  // One same-seed campaign per plane that keeps the mask plane uniform, so
  // the fast side stays indexed and rebuilds after every upset and repair.
  FaultTarget& tfast = *fast.fault_target();
  FaultTarget& tref = *ref.fault_target();
  std::vector<FaultInjector> ifast, iref;
  for (const FaultPlane plane : {FaultPlane::kStored, FaultPlane::kValid, FaultPlane::kParity}) {
    FaultCampaign campaign;
    campaign.seed = kSeed * 7 + static_cast<unsigned>(plane);
    campaign.rate_per_cycle = 0.01;
    campaign.plane = plane;
    ifast.emplace_back(tfast, campaign);
    iref.emplace_back(tref, campaign);
  }
  Scrubber::Config scrub;
  scrub.entries_per_cycle = 4;
  Scrubber sfast(tfast, scrub), sref(tref, scrub);
  sfast.capture();
  sref.capture();

  Rng rng(kSeed);
  unsigned responses = 0, flagged = 0;
  for (unsigned cyc = 0; cyc < kCycles; ++cyc) {
    // Bursty traffic with idle gaps, so the scrubber repairs mid-stream and
    // later searches read the rebuilt index.
    if (rng.next_bool(0.3)) {
      const unsigned n = 1 + static_cast<unsigned>(rng.next_below(3));
      for (unsigned i = 0; i < n; ++i) {
        cam::UnitRequest req;
        req.op = cam::OpKind::kSearch;
        req.seq = cyc * 8 + i;
        req.keys = {rng.next_bits(6)};
        cam::UnitRequest copy = req;
        const bool a = fast.try_submit(std::move(req));
        const bool b = ref.try_submit(std::move(copy));
        ASSERT_EQ(a, b) << "cycle " << cyc;
      }
    }
    fast.step();
    ref.step();

    // Upsets land between clock edges, identically on both systems; the
    // background scrubber yields to functional traffic in both worlds.
    for (std::size_t k = 0; k < ifast.size(); ++k) {
      ASSERT_EQ(ifast[k].step(), iref[k].step()) << "cycle " << cyc;
    }
    ASSERT_EQ(fast.idle(), ref.idle()) << "cycle " << cyc;
    ASSERT_EQ(sfast.step(fast.idle()), sref.step(ref.idle())) << "cycle " << cyc;
    ASSERT_TRUE(fast.unit().group_indexed(0)) << "cycle " << cyc;

    expect_same_responses(fast, ref, cyc, responses, flagged);
    if ((cyc & 255u) == 255u) expect_same_entry_state(tfast, tref, cyc);
  }

  // The campaigns must all have fired and tainted some searches.
  for (const FaultInjector& inj : ifast) EXPECT_GT(inj.stats().injected, 0u);
  EXPECT_GT(responses, kCycles / 4);
  EXPECT_GT(flagged, 0u) << "injection should taint some searches";
  EXPECT_GT(fast.stats().hits, 0u);

  // Scrub classification agrees, and a final full pass recovers both
  // systems to the same golden state.
  EXPECT_EQ(sfast.stats().detected, sref.stats().detected);
  EXPECT_EQ(sfast.stats().corrected, sref.stats().corrected);
  EXPECT_EQ(sfast.stats().silent, sref.stats().silent);
  EXPECT_GT(sfast.stats().corrected, 0u) << "no repair exercised the rebuild";
  EXPECT_EQ(sfast.scrub_all(), sref.scrub_all());
  expect_same_entry_state(tfast, tref, kCycles);

  // Recovered: every key answers from the rebuilt index exactly as the
  // reference does, with no parity taint left.
  const unsigned flagged_before = flagged;
  for (cam::Word key = 0; key < 64; ++key) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    req.seq = key;
    req.keys = {key};
    cam::UnitRequest copy = req;
    ASSERT_TRUE(fast.try_submit(std::move(req)));
    ASSERT_TRUE(ref.try_submit(std::move(copy)));
    fast.step();
    ref.step();
    expect_same_responses(fast, ref, kCycles + key, responses, flagged);
  }
  for (unsigned i = 0; i < 32; ++i) {
    fast.step();
    ref.step();
    expect_same_responses(fast, ref, kCycles + 64 + i, responses, flagged);
  }
  EXPECT_TRUE(fast.idle());
  EXPECT_EQ(flagged, flagged_before) << "parity taint survived the scrub";
}

}  // namespace
}  // namespace dspcam::fault
