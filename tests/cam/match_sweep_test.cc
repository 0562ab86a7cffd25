// Direct unit tests for the generic sweeps: the guaranteed fallback of the
// match-kernel registry, so its edge-case contract must be pinned
// independently of any block-level path:
//   - count == 0 writes nothing (the output buffer is untouched),
//   - counts that are not a multiple of 64 fill the partial tail word,
//   - tail-word bits at or above `count` are guaranteed zero,
//   - the registry's generic_avx2 sweep is bit-identical to the scalar loop
//     (when it is compiled in and runs here),
//   - the availability flag and the registry agree, so that test cannot
//     skip on a host that runs AVX2.
#include "src/cam/match_sweep.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/cam/match_kernel.h"
#include "src/common/bitops.h"
#include "src/common/random.h"

namespace dspcam::cam::detail {
namespace {

constexpr std::uint64_t kSentinel = 0xA5A5A5A5A5A5A5A5ull;

struct SweepInput {
  std::vector<std::uint64_t> stored;
  std::vector<std::uint64_t> nmask;
  Word key = 0;
};

/// Random entries over a small value space (so hits actually occur) with
/// random per-entry compare masks.
SweepInput random_input(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  SweepInput in;
  in.stored.resize(count);
  in.nmask.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    in.stored[i] = rng.next_bits(6);
    // Mostly full-width compares, some with ignored low bits, some fully
    // wildcarded (nmask == 0 matches everything).
    const double dice = rng.next_double();
    if (dice < 0.1) {
      in.nmask[i] = 0;
    } else if (dice < 0.3) {
      in.nmask[i] = low_bits(32) & ~low_bits(static_cast<unsigned>(rng.next_below(6)));
    } else {
      in.nmask[i] = low_bits(32);
    }
  }
  in.key = rng.next_bits(6);
  return in;
}

/// The registry's generic AVX2 sweep, or nullptr when it is not compiled in
/// or cannot run on this host.
MatchKernelFn generic_avx2_sweep() {
  if (!match_sweep_avx2_available()) return nullptr;
  for (const MatchKernel& k : match_kernel_registry()) {
    if (std::string(k.name) == "generic_avx2") return k.fn;
  }
  return nullptr;
}

/// The golden formula, computed bit by bit with no packing cleverness.
std::vector<std::uint64_t> golden_bits(const SweepInput& in) {
  const std::size_t count = in.stored.size();
  std::vector<std::uint64_t> out((count + 63) / 64, 0);
  for (std::size_t i = 0; i < count; ++i) {
    if (((in.stored[i] ^ in.key) & in.nmask[i]) == 0) {
      out[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
  return out;
}

TEST(MatchSweep, CountZeroWritesNothing) {
  std::vector<std::uint64_t> out(4, kSentinel);
  const std::uint64_t stored = 0, nmask = 0;
  match_sweep_scalar(&stored, &nmask, /*key=*/0, /*count=*/0, out.data());
  for (const std::uint64_t w : out) EXPECT_EQ(w, kSentinel);
  if (const MatchKernelFn avx2 = generic_avx2_sweep()) {
    avx2(&stored, &nmask, 0, 0, out.data());
    for (const std::uint64_t w : out) EXPECT_EQ(w, kSentinel);
  }
}

TEST(MatchSweep, NonMultipleOf64CountsMatchGolden) {
  // Every partial-tail shape around the word boundaries, plus a few deep
  // counts; each verified against the brute-force formula.
  for (const std::size_t count :
       {1u, 2u, 31u, 63u, 64u, 65u, 100u, 127u, 128u, 130u, 255u, 300u}) {
    const SweepInput in = random_input(count, 1000 + count);
    const auto want = golden_bits(in);
    std::vector<std::uint64_t> got(want.size(), kSentinel);
    match_sweep_scalar(in.stored.data(), in.nmask.data(), in.key, count,
                       got.data());
    EXPECT_EQ(got, want) << "count " << count;
  }
}

TEST(MatchSweep, TailBitsAboveCountAreZero) {
  // Entries beyond `count` are poisoned to values that WOULD match; the
  // sweep must not read them, and bits >= count in the last written word
  // must be zero even though the output word started as all-ones.
  for (const std::size_t count : {1u, 17u, 63u, 65u, 100u, 129u}) {
    const std::size_t padded = ((count + 63) / 64) * 64;
    std::vector<std::uint64_t> stored(padded, 0), nmask(padded, 0);
    const Word key = 7;
    for (std::size_t i = count; i < padded; ++i) stored[i] = key;  // poison
    std::vector<std::uint64_t> out((count + 63) / 64, ~std::uint64_t{0});
    match_sweep_scalar(stored.data(), nmask.data(), key, count, out.data());
    const std::size_t tail = count % 64;
    if (tail != 0) {
      EXPECT_EQ(out.back() & ~low_bits(static_cast<unsigned>(tail)), 0u)
          << "count " << count;
    }
    // nmask == 0 wildcards every real entry: all in-range bits set.
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_NE(out[i / 64] & (std::uint64_t{1} << (i % 64)), 0u)
          << "count " << count << " entry " << i;
    }
  }
}

/// match_sweep_avx2_available() is the flag bench/e2e reports and the
/// registry gates generic_avx2 on. Whenever it is true the registry must
/// lead with generic_avx2, or Avx2MatchesScalarBitForBit would skip instead
/// of fail; when false, only generic_scalar may be registered.
TEST(MatchSweep, Avx2AvailabilityAgreesWithRegistry) {
  const MatchKernel& front = match_kernel_registry().front();
  if (match_sweep_avx2_available()) {
    EXPECT_STREQ(front.name, "generic_avx2");
    EXPECT_EQ(generic_avx2_sweep(), front.fn);
  } else {
    EXPECT_EQ(generic_avx2_sweep(), nullptr);
    EXPECT_STREQ(front.name, "generic_scalar");
    EXPECT_EQ(match_kernel_registry().size(), 1u);
  }
}

TEST(MatchSweep, Avx2MatchesScalarBitForBit) {
  const MatchKernelFn avx2 = generic_avx2_sweep();
  if (avx2 == nullptr) {
    GTEST_SKIP() << "generic_avx2 not compiled in or not runnable on this host";
  }
  for (std::size_t count = 1; count <= 200; ++count) {
    const SweepInput in = random_input(count, 9000 + count);
    std::vector<std::uint64_t> scalar((count + 63) / 64, kSentinel);
    std::vector<std::uint64_t> vec(scalar.size(), ~kSentinel);
    match_sweep_scalar(in.stored.data(), in.nmask.data(), in.key, count,
                       scalar.data());
    avx2(in.stored.data(), in.nmask.data(), in.key, count, vec.data());
    ASSERT_EQ(vec, scalar) << "count " << count;
  }
}

}  // namespace
}  // namespace dspcam::cam::detail
