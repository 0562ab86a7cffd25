// Golden tests for the fused sweep→encode kernel entry point
// (MatchKernelEncodeFn, match_kernel.h):
//   - every registered encode kernel - scalar templates and the AVX2
//     tier - reproduces
//     encode_match_lines() over the valid-ANDed raw sweep, field for field,
//     under all three encoding schemes,
//   - one-hot out_bits carries exactly the valid-ANDed match words with a
//     zero tail (poisoned-buffer checked, guard word included),
//   - count == 0 is well-defined on flexible-depth kernels,
//   - every registered kernel, the generic family included, carries the
//     fused entry point (the fast plane's only sweep path), so the
//     golden checks above cover generic_scalar/generic_avx2 too.
#include "src/cam/match_kernel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/cam/encoder.h"
#include "src/cam/match_sweep.h"
#include "src/common/bitops.h"
#include "src/common/bitvec.h"
#include "src/common/random.h"

namespace dspcam::cam {
namespace {

constexpr std::uint64_t kSentinel = 0xDEADBEEFDEADBEEFull;

constexpr EncodingScheme kSchemes[] = {EncodingScheme::kPriorityIndex,
                                       EncodingScheme::kOneHot,
                                       EncodingScheme::kMatchCount};

/// A width the kernel is selectable at: the cap for narrow-width kernels,
/// full DSP width otherwise.
unsigned golden_width(const MatchKernel& k) {
  return k.max_width != 0 ? k.max_width : 48;
}

struct Arrays {
  std::vector<std::uint64_t> stored;
  std::vector<std::uint64_t> nmask;
  std::vector<std::uint64_t> valid;
};

/// Randomized packed arrays for `count` entries at `width`: low-entropy
/// stored words (so hits happen), wildcard/partial/full masks unless the
/// kernel requires a uniform plane, and the requested valid pattern.
/// valid_mode: 0 = all valid, 1 = random, 2 = none valid.
Arrays make_arrays(Rng& rng, const MatchKernel& k, unsigned width,
                   std::size_t count, int valid_mode) {
  Arrays a;
  a.stored.resize(count);
  a.nmask.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    a.stored[i] = truncate(rng.next_bits(6), width);
    a.nmask[i] = k.needs_uniform_mask
                     ? low_bits(width)
                     : low_bits(width) &
                           ~low_bits(static_cast<unsigned>(rng.next_below(6)));
  }
  const std::size_t words = (count + 63) / 64;
  a.valid.assign(words, 0);
  for (std::size_t wi = 0; wi < words; ++wi) {
    switch (valid_mode) {
      case 0:
        a.valid[wi] = ~std::uint64_t{0};
        break;
      case 1:
        a.valid[wi] = rng.next_bits(64);
        break;
      default:
        a.valid[wi] = 0;
        break;
    }
    // Tail contract: valid bits at or above `count` are clear.
    const std::size_t base = wi * 64;
    if (count - base < 64) a.valid[wi] &= (std::uint64_t{1} << (count - base)) - 1;
  }
  return a;
}

/// The golden result: the kernel's own raw sweep, valid-ANDed into a BitVec,
/// through the reference encoder.
BlockResponse golden_encode(const MatchKernel& k, const Arrays& a, Word key,
                            std::size_t count, EncodingScheme scheme) {
  const std::size_t words = (count + 63) / 64;
  std::vector<std::uint64_t> sweep(words, kSentinel);
  k.fn(a.stored.data(), a.nmask.data(), key, count, sweep.data());
  BitVec lines(count);
  for (std::size_t wi = 0; wi < words; ++wi) {
    lines.set_word(wi, sweep[wi] & a.valid[wi]);
  }
  return encode_match_lines(lines, scheme, QueryTag{});
}

void expect_encoded_eq(const BlockResponse& want, const EncodedMatch& got,
                       const char* name, std::size_t count,
                       EncodingScheme scheme, int valid_mode) {
  EXPECT_EQ(got.hit, want.hit) << name << " count " << count << " scheme "
                               << static_cast<int>(scheme) << " valid "
                               << valid_mode;
  EXPECT_EQ(got.first_match, want.first_match)
      << name << " count " << count << " scheme " << static_cast<int>(scheme)
      << " valid " << valid_mode;
  EXPECT_EQ(got.match_count, want.match_count)
      << name << " count " << count << " scheme " << static_cast<int>(scheme)
      << " valid " << valid_mode;
}

TEST(FusedEncodeKernels, EveryEncodeKernelMatchesGoldenEncoder) {
  unsigned exercised = 0;
  for (const MatchKernel& k : match_kernel_registry()) {
    if (k.needs_avx2 && !detail::match_sweep_avx2_available()) continue;
    ++exercised;
    const unsigned width = golden_width(k);
    // Depth-pinned kernels may ignore `count`; flexible ones also get
    // ragged counts to pin the partial tail word.
    const std::vector<std::size_t> counts =
        k.depth != 0 ? std::vector<std::size_t>{k.depth}
                     : std::vector<std::size_t>{1, 64, 100, 130};
    for (const std::size_t count : counts) {
      for (int valid_mode = 0; valid_mode < 3; ++valid_mode) {
        Rng rng(0xE11C0DE ^ count ^ (valid_mode << 20));
        const Arrays a = make_arrays(rng, k, width, count, valid_mode);
        const std::size_t words = (count + 63) / 64;
        for (const EncodingScheme scheme : kSchemes) {
          const BlockResponse want = golden_encode(k, a, /*key=*/a.stored[0],
                                                   count, scheme);
          EncodedMatch got;
          got.first_match = 0xAAAAAAAA;  // poisoned: the kernel must reset
          got.match_count = 0xBBBBBBBB;
          got.hit = true;
          if (scheme == EncodingScheme::kOneHot) {
            // Poisoned buffer with a guard word past the end.
            std::vector<std::uint64_t> bits(words + 1, kSentinel);
            k.encode_fn(a.stored.data(), a.nmask.data(), a.valid.data(),
                        a.stored[0], count, scheme, got, bits.data());
            for (std::size_t wi = 0; wi < words; ++wi) {
              EXPECT_EQ(bits[wi], want.raw.words()[wi])
                  << k.name << " count " << count << " word " << wi
                  << " valid " << valid_mode;
            }
            EXPECT_EQ(bits[words], kSentinel)
                << k.name << ": one-hot encode overran its buffer";
          } else {
            // The contract allows null out_bits outside kOneHot - pin it.
            k.encode_fn(a.stored.data(), a.nmask.data(), a.valid.data(),
                        a.stored[0], count, scheme, got, nullptr);
          }
          expect_encoded_eq(want, got, k.name, count, scheme, valid_mode);
        }
      }
    }
  }
  // The scalar eq/masked template family, "eq" and generic_scalar at
  // minimum (plus the AVX2 tier, generic included, where it runs).
  EXPECT_GE(exercised, 14u);
}

TEST(FusedEncodeKernels, ZeroCountIsWellDefinedOnFlexibleKernels) {
  for (const MatchKernel& k : match_kernel_registry()) {
    if (k.depth != 0) continue;
    if (k.needs_avx2 && !detail::match_sweep_avx2_available()) continue;
    for (const EncodingScheme scheme : kSchemes) {
      EncodedMatch got;
      got.hit = true;
      got.first_match = got.match_count = 7;
      std::uint64_t guard = kSentinel;
      k.encode_fn(nullptr, nullptr, nullptr, /*key=*/0, /*count=*/0, scheme,
                  got, scheme == EncodingScheme::kOneHot ? &guard : nullptr);
      EXPECT_FALSE(got.hit) << k.name;
      EXPECT_EQ(got.first_match, 0u) << k.name;
      EXPECT_EQ(got.match_count, 0u) << k.name;
      EXPECT_EQ(guard, kSentinel) << k.name << ": wrote words for count 0";
    }
  }
}

/// The fast plane (fast_plane.h) sweeps only through the fused entry
/// point, so every kernel - force_generic_kernel's generic family
/// included - must carry it.
TEST(FusedEncodeKernels, EveryKernelCarriesFusedEncodeEntryPoints) {
  unsigned generics = 0;
  for (const MatchKernel& k : match_kernel_registry()) {
    EXPECT_NE(k.encode_fn, nullptr) << k.name;
    if (k.generic) ++generics;
  }
  // generic_scalar everywhere, plus generic_avx2 where the AVX2 tier runs.
  EXPECT_GE(generics, detail::match_sweep_avx2_available() ? 2u : 1u);
}

}  // namespace
}  // namespace dspcam::cam
