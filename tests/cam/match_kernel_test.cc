// Match-kernel registry tests (match_kernel.h):
//   - registry invariants (terminal fallback, unique names, sane descriptors,
//     all four entry points set),
//   - the selector honours every descriptor constraint and priority order,
//   - the selection table: the kernel each geometry gets on this host's tier,
//     and the scalar tier's picks on every host,
//   - BlockConfig::force_generic_kernel pins the generic family,
//   - every registered kernel is bit-identical to the golden match formula
//     at a geometry it would be selected for (tail bits included),
//   - a mask-plane poke on a binary block demotes dispatch to the masked
//     fallback without changing a single result bit vs the reference model.
#include "src/cam/match_kernel.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/cam/block.h"
#include "src/cam/mask.h"
#include "src/cam/match_sweep.h"
#include "src/common/bitops.h"
#include "src/common/random.h"
#include "tests/cam/testbench.h"

namespace dspcam::cam {
namespace {

/// The selector's eligibility predicate, restated independently.
bool eligible(const MatchKernel& k, const MatchKernelQuery& q) {
  if (q.force_generic && !k.generic) return false;
  if (k.needs_avx2 && !detail::match_sweep_avx2_available()) return false;
  if (k.needs_uniform_mask && (!q.allow_mask_free || q.kind != CamKind::kBinary)) {
    return false;
  }
  if (k.max_width != 0 && q.data_width > k.max_width) return false;
  if (k.depth != 0 && q.block_size != k.depth) return false;
  return true;
}

/// A width every golden test can legally run a kernel at: the cap for
/// narrow-width kernels, full DSP width otherwise.
unsigned golden_width(const MatchKernel& k) {
  return k.max_width != 0 ? k.max_width : 48;
}

TEST(MatchKernelRegistry, TerminalFallbackMatchesEverything) {
  const auto& reg = match_kernel_registry();
  ASSERT_FALSE(reg.empty());
  const MatchKernel& last = reg.back();
  EXPECT_STREQ(last.name, "generic_scalar");
  EXPECT_TRUE(last.generic);
  EXPECT_FALSE(last.needs_avx2);
  EXPECT_FALSE(last.needs_uniform_mask);
  EXPECT_EQ(last.max_width, 0u);
  EXPECT_EQ(last.depth, 0u);
}

TEST(MatchKernelRegistry, DescriptorsAreSane) {
  std::set<std::string> names;
  for (const MatchKernel& k : match_kernel_registry()) {
    ASSERT_NE(k.name, nullptr);
    // Every kernel carries all four entry points; nothing loops `fn`.
    ASSERT_NE(k.fn, nullptr) << k.name;
    ASSERT_NE(k.multi_fn, nullptr) << k.name;
    ASSERT_NE(k.encode_fn, nullptr) << k.name;
    ASSERT_NE(k.multi_encode_fn, nullptr) << k.name;
    EXPECT_TRUE(names.insert(k.name).second) << "duplicate kernel " << k.name;
    if (k.depth != 0) {
      // Depth-specialized kernels may ignore `count`, so selection must
      // only ever hand them their exact depth - which the selector does by
      // equality; the descriptor just has to be one of the compiled sizes.
      EXPECT_EQ(k.depth & (k.depth - 1), 0u) << k.name << ": depth not a power of 2";
    }
  }
}

TEST(MatchKernelRegistry, SelectorHonoursDescriptorsAndPriority) {
  for (const CamKind kind :
       {CamKind::kBinary, CamKind::kTernary, CamKind::kRange}) {
    for (const unsigned width : {8u, 16u, 32u, 48u}) {
      for (const unsigned block_size : {16u, 64u, 100u, 128u, 512u}) {
        for (const bool force_generic : {false, true}) {
          for (const bool allow_mask_free : {true, false}) {
            MatchKernelQuery q;
            q.kind = kind;
            q.data_width = width;
            q.block_size = block_size;
            q.force_generic = force_generic;
            q.allow_mask_free = allow_mask_free;
            const MatchKernel& got = select_match_kernel(q);
            EXPECT_TRUE(eligible(got, q)) << got.name;
            // Priority: nothing ranked higher was eligible.
            for (const MatchKernel& k : match_kernel_registry()) {
              if (&k == &got) break;
              EXPECT_FALSE(eligible(k, q))
                  << k.name << " outranks " << got.name << " and was eligible";
            }
          }
        }
      }
    }
  }
}

TEST(MatchKernelRegistry, NonBinaryNeverGetsMaskFreeKernels) {
  for (const CamKind kind : {CamKind::kTernary, CamKind::kRange}) {
    MatchKernelQuery q;
    q.kind = kind;
    EXPECT_FALSE(select_match_kernel(q).needs_uniform_mask);
  }
}

/// The selection table's grid. Widths index {16, 32, 48}; depths index
/// {16, 128, 256, 8192}. "Masked" covers TCAM, RMCAM and the binary
/// fallback dispatched once a poke de-uniforms the mask plane.
constexpr unsigned kTableWidths[] = {16, 32, 48};
constexpr unsigned kTableDepths[] = {16, 128, 256, 8192};
// AVX2 host: depth never matters.
constexpr const char* kAvx2MaskFree[] = {"eq32_avx2", "eq32_avx2", "eq64_avx2"};
constexpr const char* kAvx2Masked[] = {"masked32_avx2", "masked32_avx2",
                                       "generic_avx2"};
// No AVX2 (DSPCAM_NO_SIMD build or host): width never matters.
constexpr const char* kScalarMaskFree[] = {"eq_d16", "eq_d128", "eq_d256",
                                           "eq"};
constexpr const char* kScalarMasked[] = {"masked_d16", "masked_d128",
                                         "masked_d256", "generic_scalar"};

/// The pinned pick for `q` (width index `wi`, depth index `di`) on the AVX2
/// tier or the scalar tier.
std::string table_pick(bool avx2, const MatchKernelQuery& q, std::size_t wi,
                       std::size_t di) {
  const bool mask_free = q.kind == CamKind::kBinary && q.allow_mask_free;
  if (avx2) {
    return q.force_generic ? "generic_avx2"
           : mask_free     ? kAvx2MaskFree[wi]
                           : kAvx2Masked[wi];
  }
  return q.force_generic ? "generic_scalar"
         : mask_free     ? kScalarMaskFree[di]
                         : kScalarMasked[di];
}

/// Calls `check(q, wi, di)` for every query of the selection table: binary
/// (mask-free and fallback), ternary and range, every grid width and depth,
/// forced and unforced.
template <typename Check>
void for_each_table_query(Check check) {
  struct Row {
    CamKind kind;
    bool allow_mask_free;
  };
  for (const Row row : {Row{CamKind::kBinary, true}, Row{CamKind::kBinary, false},
                        Row{CamKind::kTernary, true}, Row{CamKind::kRange, true}}) {
    for (std::size_t wi = 0; wi < std::size(kTableWidths); ++wi) {
      for (std::size_t di = 0; di < std::size(kTableDepths); ++di) {
        for (const bool forced : {false, true}) {
          MatchKernelQuery q;
          q.kind = row.kind;
          q.allow_mask_free = row.allow_mask_free;
          q.data_width = kTableWidths[wi];
          q.block_size = kTableDepths[di];
          q.force_generic = forced;
          check(q, wi, di);
        }
      }
    }
  }
}

std::string describe(const MatchKernelQuery& q) {
  return std::string(to_string(q.kind)) + " allow_mask_free " +
         std::to_string(q.allow_mask_free) + " width " +
         std::to_string(q.data_width) + " depth " +
         std::to_string(q.block_size) + " forced " +
         std::to_string(q.force_generic);
}

/// The kernel each geometry gets on this host's tier, so a registry reorder
/// or descriptor change that moves a pick fails here.
TEST(MatchKernelRegistry, SelectionTableIsPinned) {
  const bool avx2 = detail::match_sweep_avx2_available();
  for_each_table_query([&](const MatchKernelQuery& q, std::size_t wi,
                           std::size_t di) {
    EXPECT_EQ(select_match_kernel(q).name, table_pick(avx2, q, wi, di))
        << describe(q);
  });
}

/// The scalar tier's picks, checked on every host: the first non-AVX2
/// registry entry the selector's predicate admits. On an AVX2 host the
/// selector never reaches this tier, so without this a reorder of the
/// scalar family would only fail on a DSPCAM_NO_SIMD build.
TEST(MatchKernelRegistry, ScalarTierSelectionTableIsPinned) {
  for_each_table_query([](const MatchKernelQuery& q, std::size_t wi,
                          std::size_t di) {
    const MatchKernel* pick = nullptr;
    for (const MatchKernel& k : match_kernel_registry()) {
      if (!k.needs_avx2 && eligible(k, q)) {
        pick = &k;
        break;
      }
    }
    ASSERT_NE(pick, nullptr) << describe(q);
    EXPECT_EQ(pick->name, table_pick(/*avx2=*/false, q, wi, di)) << describe(q);
  });
}

BlockConfig fast_block(CamKind kind = CamKind::kBinary, unsigned width = 32,
                       unsigned size = 64) {
  BlockConfig b;
  b.cell.kind = kind;
  b.cell.data_width = width;
  b.block_size = size;
  b.bus_width = 512;
  b.eval_mode = EvalMode::kFast;
  return b;
}

TEST(MatchKernelRegistry, ForceGenericConfigPinsGenericFamily) {
  {
    CamBlock block(fast_block());
    ASSERT_NE(block.match_kernel(), nullptr);
    // The selection itself is host-dependent (AVX2 or not), but some
    // specialization always outranks the generics for this geometry.
    EXPECT_FALSE(block.match_kernel()->generic);
  }
  {
    auto cfg = fast_block();
    cfg.force_generic_kernel = true;
    CamBlock block(cfg);
    ASSERT_NE(block.match_kernel(), nullptr);
    EXPECT_TRUE(block.match_kernel()->generic);
  }
}

TEST(MatchKernelRegistry, ReferenceModeSelectsNoKernel) {
  auto cfg = fast_block();
  cfg.eval_mode = EvalMode::kReference;
  CamBlock block(cfg);
  EXPECT_EQ(block.match_kernel(), nullptr);
  EXPECT_EQ(block.match_kernel_name(), "reference");
}

/// Every registered kernel, run at a geometry it is selectable for, must
/// reproduce the golden formula bit for bit - including zero tail bits.
TEST(MatchKernelRegistry, EveryKernelMatchesGoldenFormula) {
  unsigned exercised = 0;
  for (const MatchKernel& k : match_kernel_registry()) {
    if (k.needs_avx2 && !detail::match_sweep_avx2_available()) continue;
    ++exercised;
    const unsigned width = golden_width(k);
    // Depth-specialized kernels may ignore `count`; everything else also
    // gets a ragged count to pin the partial tail word.
    std::vector<std::size_t> counts;
    if (k.depth != 0) {
      counts = {k.depth};
    } else {
      counts = {64, 100, 130};
    }
    for (const std::size_t count : counts) {
      Rng rng(0xC0FFEE ^ count);
      std::vector<std::uint64_t> stored(count), nmask(count);
      for (std::size_t i = 0; i < count; ++i) {
        stored[i] = truncate(rng.next_bits(6), width);
        if (k.needs_uniform_mask) {
          // Mask-free kernels are only dispatched on a uniform plane.
          nmask[i] = low_bits(width);
        } else {
          nmask[i] = low_bits(width) &
                     ~low_bits(static_cast<unsigned>(rng.next_below(6)));
        }
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
  // generic_scalar and the full scalar specialized family at minimum.
  EXPECT_GE(exercised, 14u);
}

/// Every fused multi-key entry point must reproduce its own single-key
/// kernel exactly, key for key, for every batch width fusion can form -
/// that equivalence is what lets a staged record stand in for a fresh
/// compare (block.cc).
TEST(MatchKernelRegistry, EveryMultiKernelMatchesPerKeySweep) {
  unsigned exercised = 0;
  for (const MatchKernel& k : match_kernel_registry()) {
    if (k.needs_avx2 && !detail::match_sweep_avx2_available()) continue;
    ++exercised;
    const unsigned width = golden_width(k);
    const std::size_t count = k.depth != 0 ? k.depth : 130;
    Rng rng(0xFACADE ^ count);
    std::vector<std::uint64_t> stored(count), nmask(count);
    for (std::size_t i = 0; i < count; ++i) {
      stored[i] = truncate(rng.next_bits(6), width);
      nmask[i] = k.needs_uniform_mask
                     ? low_bits(width)
                     : low_bits(width) &
                           ~low_bits(static_cast<unsigned>(rng.next_below(6)));
    }
    const std::size_t words = (count + 63) / 64;
    for (const std::size_t nkeys : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, kMaxFusionKeys}) {
      std::vector<Word> keys(nkeys);
      for (std::size_t i = 0; i < nkeys; ++i) {
        keys[i] = truncate(rng.next_bits(6), width);
      }
      if (nkeys >= 2) keys[1] = keys[0];  // duplicates must be harmless
      std::vector<std::uint64_t> fused(nkeys * words, ~std::uint64_t{0});
      k.multi_fn(stored.data(), nmask.data(), keys.data(), nkeys, count,
                 fused.data());
      for (std::size_t i = 0; i < nkeys; ++i) {
        std::vector<std::uint64_t> want(words, 0);
        k.fn(stored.data(), nmask.data(), keys[i], count, want.data());
        for (std::size_t wi = 0; wi < words; ++wi) {
          EXPECT_EQ(fused[i * words + wi], want[wi])
              << k.name << " nkeys " << nkeys << " key " << i << " word " << wi;
        }
      }
    }
  }
  EXPECT_GE(exercised, 14u);
}

/// A fault-style poke that de-uniforms a binary block's mask plane must
/// flip dispatch to the masked fallback - observable only through
/// mask_plane_uniform(), never through results, which stay bit-identical
/// to the reference model before, during, and after.
TEST(MatchKernelRegistry, MaskPokeDemotesToMaskedFallbackBitIdentically) {
  auto fast_cfg = fast_block(CamKind::kBinary, 32, 64);
  auto ref_cfg = fast_cfg;
  ref_cfg.eval_mode = EvalMode::kReference;
  CamBlock fast(fast_cfg);
  CamBlock ref(ref_cfg);

  const std::vector<Word> values = {5, 9, 12, 21, 33};
  test::load_block(fast, values);
  test::load_block(ref, values);
  EXPECT_TRUE(fast.mask_plane_uniform());

  const auto expect_same_results = [&](const char* when) {
    for (Word key = 0; key < 40; ++key) {
      const auto f = test::run_search(fast, key);
      const auto r = test::run_search(ref, key);
      ASSERT_EQ(f.hit, r.hit) << when << " key " << key;
      if (r.hit) {
        ASSERT_EQ(f.first_match, r.first_match) << when << " key " << key;
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
  EXPECT_FALSE(fast.mask_plane_uniform());
  expect_same_results("non-uniform");
  {
    const auto f = test::run_search(fast, 14);
    ASSERT_TRUE(f.hit);  // 14 ^ 9 = 7, entirely inside the ignored low bits
    EXPECT_EQ(f.first_match, 1u);
  }

  // Poking the entry back does NOT restore uniformity (sticky by design) -
  // but results must still be identical.
  fast.poke_entry(1, 9, bcam_mask(32), true, false);
  ref.poke_entry(1, 9, bcam_mask(32), true, false);
  EXPECT_FALSE(fast.mask_plane_uniform());
  expect_same_results("restored entry, sticky flag");

  // A hard reset re-uniforms the plane and re-arms the specialized kernel.
  fast.hard_reset();
  ref.hard_reset();
  EXPECT_TRUE(fast.mask_plane_uniform());
  test::load_block(fast, values);
  test::load_block(ref, values);
  expect_same_results("after reset");
}

}  // namespace
}  // namespace dspcam::cam
