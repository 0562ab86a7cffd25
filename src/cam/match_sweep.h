// Portable match-line sweeps for the EvalMode::kFast match plane.
//
// The fast path evaluates, for every entry i of a plane,
//   match_i = ((stored_i ^ key) & ~mask_i) == 0
// over the packed pre-edge arrays (fast_plane.h). This header holds:
//
//  - match_sweep_scalar: the portable reference loop behind the registry's
//    generic_scalar kernel (match_kernel.h), the guaranteed fallback for
//    every geometry. It writes ceil(count / 64) words of raw match bits;
//    the caller masks with the packed valid flags.
//  - match_sweep_avx2_available(): whether the AVX2 kernels
//    (match_kernels_avx2.cc, generic_avx2 among them) are compiled in and
//    runnable here. Compiled in only when the toolchain supports -mavx2 and
//    DSPCAM_NO_SIMD is off; the runtime CPUID check guards against running
//    AVX2 code on a host without it. Every AVX2 kernel is pure integer
//    compares, so it is bit-identical to these loops by construction
//    (pinned by the ref-vs-fast lockstep fuzz and the DSPCAM_NO_SIMD CI
//    leg).
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/cam/types.h"

namespace dspcam::cam::detail {

/// True when the AVX2 kernels are compiled in AND this CPU executes AVX2.
/// Cheap after the first call (cached); the answer never changes.
bool match_sweep_avx2_available() noexcept;

/// Portable scalar sweep: out_bits[i / 64] bit (i % 64) =
/// ((stored[i] ^ key) & nmask[i]) == 0 for i in [0, count).
inline void match_sweep_scalar(const std::uint64_t* stored,
                               const std::uint64_t* nmask, Word key,
                               std::size_t count, std::uint64_t* out_bits) {
  const std::size_t words = (count + 63) / 64;
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::size_t base = wi * 64;
    const std::size_t lanes = count - base < 64 ? count - base : 64;
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < lanes; ++b) {
      bits |= static_cast<std::uint64_t>(((stored[base + b] ^ key) & nmask[base + b]) == 0)
              << b;
    }
    out_bits[wi] = bits;
  }
}

}  // namespace dspcam::cam::detail
