// Match-kernel registry tests (match_kernel.h):
//   - the registry holds exactly one sweep per SIMD tier: generic_avx2
//     (where it runs) ahead of generic_scalar, both entry points set,
//   - every geometry, and every kind of fast CamUnit, gets the registry's
//     first entry,
//   - every registered kernel is bit-identical to the golden match formula
//     (tail bits included),
//   - a mask-plane poke on an indexed one-block binary unit demotes its
//     plane to the sweep without changing a single result bit vs the
//     reference model.
#include "src/cam/match_kernel.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/cam/fast_plane.h"
#include "src/cam/mask.h"
#include "src/cam/match_sweep.h"
#include "src/cam/unit.h"
#include "src/common/bitops.h"
#include "src/common/random.h"
#include "tests/cam/testbench.h"

namespace dspcam::cam {
namespace {

/// Whether this build on this host should run the AVX2 sweep: an x86-64
/// CPU with AVX2, unless DSPCAM_NO_SIMD compiled the sweep out.
bool expect_avx2_tier() {
#if defined(DSPCAM_NO_SIMD) || !defined(__x86_64__)
  return false;
#else
  return __builtin_cpu_supports("avx2") != 0;
#endif
}

std::vector<std::string> registry_names() {
  std::vector<std::string> names;
  for (const MatchKernel& k : match_kernel_registry()) names.emplace_back(k.name);
  return names;
}

TEST(MatchKernelRegistry, RegistryHoldsOneSweepPerTier) {
  const std::vector<std::string> want =
      expect_avx2_tier() ? std::vector<std::string>{"generic_avx2", "generic_scalar"}
                         : std::vector<std::string>{"generic_scalar"};
  EXPECT_EQ(registry_names(), want);
  EXPECT_EQ(detail::match_sweep_avx2_available(), expect_avx2_tier());
}

TEST(MatchKernelRegistry, TerminalFallbackMatchesEverything) {
  const auto& reg = match_kernel_registry();
  ASSERT_FALSE(reg.empty());
  const MatchKernel& last = reg.back();
  EXPECT_STREQ(last.name, "generic_scalar");
  EXPECT_EQ(last.fn, &detail::match_sweep_scalar);
}

TEST(MatchKernelRegistry, DescriptorsAreSane) {
  std::set<std::string> names;
  for (const MatchKernel& k : match_kernel_registry()) {
    ASSERT_NE(k.name, nullptr);
    // Every kernel carries both entry points.
    ASSERT_NE(k.fn, nullptr) << k.name;
    ASSERT_NE(k.encode_fn, nullptr) << k.name;
    EXPECT_TRUE(names.insert(k.name).second) << "duplicate kernel " << k.name;
  }
}

/// A one-block unit: the block's plane is the group's plane.
UnitConfig one_block_unit(CamKind kind = CamKind::kBinary, unsigned size = 64,
                          EvalMode mode = EvalMode::kFast) {
  UnitConfig u;
  u.block.cell.kind = kind;
  u.block.cell.data_width = 32;
  u.block.block_size = size;
  u.block.bus_width = 512;
  u.unit_size = 1;
  u.bus_width = 512;
  u.eval_mode = mode;
  return u;
}

/// Every geometry gets the registry's first entry: the query is not read.
TEST(MatchKernelRegistry, SelectionTableIsPinned) {
  const std::string want = expect_avx2_tier() ? "generic_avx2" : "generic_scalar";
  for (const unsigned width : {1u, 16u, 32u, 48u}) {
    for (const unsigned depth : {16u, 100u, 128u, 256u, 8192u}) {
      MatchKernelQuery q;
      q.data_width = width;
      q.block_size = depth;
      EXPECT_EQ(select_match_kernel(q).name, want)
          << "width " << width << " depth " << depth;
    }
  }
  // Every kind of fast unit sweeps with that same kernel.
  for (const CamKind kind : {CamKind::kBinary, CamKind::kTernary, CamKind::kRange}) {
    EXPECT_EQ(CamUnit(one_block_unit(kind)).match_kernel_name(), want) << to_string(kind);
  }
}

TEST(MatchKernelRegistry, ReferenceModeSelectsNoKernel) {
  const CamUnit unit(one_block_unit(CamKind::kBinary, FastPlane::kIndexMinDepth,
                                    EvalMode::kReference));
  EXPECT_EQ(unit.match_kernel_name(), "reference");
  EXPECT_FALSE(unit.group_indexed(0));
}

/// Every registered kernel must reproduce the golden formula bit for bit -
/// including zero tail bits - at full DSP width, under per-entry masks.
TEST(MatchKernelRegistry, EveryKernelMatchesGoldenFormula) {
  constexpr unsigned width = 48;
  unsigned exercised = 0;
  for (const MatchKernel& k : match_kernel_registry()) {
    ++exercised;
    // Ragged counts pin the partial tail word.
    for (const std::size_t count : {16u, 64u, 100u, 130u}) {
      Rng rng(0xC0FFEE ^ count);
      std::vector<std::uint64_t> stored(count), nmask(count);
      for (std::size_t i = 0; i < count; ++i) {
        stored[i] = truncate(rng.next_bits(6), width);
        nmask[i] = low_bits(width) &
                   ~low_bits(static_cast<unsigned>(rng.next_below(6)));
      }
      const Word key = truncate(rng.next_bits(6), width);
      std::vector<std::uint64_t> want((count + 63) / 64, 0);
      for (std::size_t i = 0; i < count; ++i) {
        if (((stored[i] ^ key) & nmask[i]) == 0) {
          want[i / 64] |= std::uint64_t{1} << (i % 64);
        }
      }
      std::vector<std::uint64_t> got(want.size(), ~std::uint64_t{0});
      k.fn(stored.data(), nmask.data(), key, count, got.data());
      EXPECT_EQ(got, want) << k.name << " count " << count;
    }
  }
  // generic_scalar, plus generic_avx2 where it runs.
  EXPECT_EQ(exercised, expect_avx2_tier() ? 2u : 1u);
}

/// A fault-style poke that de-uniforms an indexed binary plane's mask plane
/// must demote it from the exact-match index to the masked sweep -
/// observable only through group_indexed(), never through results, which
/// stay bit-identical to the reference model before, during, and after.
TEST(MatchKernelRegistry, MaskPokeDemotesToMaskedFallbackBitIdentically) {
  CamUnit fast(one_block_unit(CamKind::kBinary, FastPlane::kIndexMinDepth));
  CamUnit ref(one_block_unit(CamKind::kBinary, FastPlane::kIndexMinDepth,
                             EvalMode::kReference));

  const std::vector<Word> values = {5, 9, 12, 21, 33};
  test::load_unit(fast, values);
  test::load_unit(ref, values);
  EXPECT_TRUE(fast.group_indexed(0));

  const auto expect_same_results = [&](const char* when) {
    for (Word key = 0; key < 40; ++key) {
      const auto f = test::run_unit_search(fast, {key}).results[0];
      const auto r = test::run_unit_search(ref, {key}).results[0];
      ASSERT_EQ(f.hit, r.hit) << when << " key " << key;
      if (r.hit) {
        ASSERT_EQ(f.global_address, r.global_address) << when << " key " << key;
      }
    }
  };
  expect_same_results("uniform");

  // SEU on the MASK plane: entry 1 now ignores its low 4 bits, so keys
  // 8..15 all hit it. Poke both models identically (that is the fault
  // campaign's contract) and compare behaviour.
  const std::uint64_t upset_mask = bcam_mask(32) | low_bits(4);
  fast.poke_entry(1, 9, upset_mask, true, false);
  ref.poke_entry(1, 9, upset_mask, true, false);
  EXPECT_FALSE(fast.group_indexed(0));
  expect_same_results("non-uniform");
  {
    const auto f = test::run_unit_search(fast, {14}).results[0];
    ASSERT_TRUE(f.hit);  // 14 ^ 9 = 7, entirely inside the ignored low bits
    EXPECT_EQ(f.global_address, 1u);
  }

  // Poking the entry back does NOT restore uniformity (sticky by design) -
  // but results must still be identical.
  fast.poke_entry(1, 9, bcam_mask(32), true, false);
  ref.poke_entry(1, 9, bcam_mask(32), true, false);
  EXPECT_FALSE(fast.group_indexed(0));
  expect_same_results("restored entry, sticky flag");

  // A reset beat re-uniforms the plane and re-arms the index.
  for (CamUnit* unit : {&fast, &ref}) {
    UnitRequest reset;
    reset.op = OpKind::kReset;
    unit->issue(std::move(reset));
    test::steps(*unit, CamUnit::update_latency() + 2);
  }
  EXPECT_TRUE(fast.group_indexed(0));
  test::load_unit(fast, values);
  test::load_unit(ref, values);
  expect_same_results("after reset");
}

}  // namespace
}  // namespace dspcam::cam
