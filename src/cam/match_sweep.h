// Portable match-line sweeps for the EvalMode::kFast match plane.
//
// The fast path evaluates, for every entry i of a plane,
//   match_i = ((stored_i ^ key) & ~mask_i) == 0
// over the packed pre-edge arrays (fast_plane.h). This header holds:
//
//  - match_sweep_scalar / match_sweep_scalar_multi: the portable reference
//    loops behind the registry's generic_scalar kernel (match_kernel.h),
//    the guaranteed fallback for every geometry. They write ceil(count /
//    64) words of raw match bits; the caller masks with the packed valid
//    flags.
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

/// Portable multi-key sweep: one walk of the packed arrays answers `nkeys`
/// keys. Key-major output: key k's bits start at out_bits + k *
/// ceil(count / 64), each a full single-key sweep result. Entry-major: each
/// stored/nmask word is loaded once and compared against every key, which
/// is the whole point of fusion - the operand stream is amortized across
/// the batch.
inline void match_sweep_scalar_multi(const std::uint64_t* stored,
                                     const std::uint64_t* nmask,
                                     const Word* keys, std::size_t nkeys,
                                     std::size_t count,
                                     std::uint64_t* out_bits) {
  const std::size_t words = (count + 63) / 64;
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::size_t base = wi * 64;
    const std::size_t lanes = count - base < 64 ? count - base : 64;
    for (std::size_t k = 0; k < nkeys; ++k) out_bits[k * words + wi] = 0;
    for (std::size_t b = 0; b < lanes; ++b) {
      const std::uint64_t s = stored[base + b];
      const std::uint64_t nm = nmask[base + b];
      for (std::size_t k = 0; k < nkeys; ++k) {
        out_bits[k * words + wi] |=
            static_cast<std::uint64_t>(((s ^ keys[k]) & nm) == 0) << b;
      }
    }
  }
}

}  // namespace dspcam::cam::detail
