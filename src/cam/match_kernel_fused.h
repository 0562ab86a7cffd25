// Shared driver for the fused sweep→encode kernel entry point
// (MatchKernelEncodeFn in match_kernel.h).
//
// Both sweeps - generic_scalar (match_kernel.cc) and generic_avx2
// (match_kernels_avx2.cc) - fuse the same three stages:
//
//   match word  ->  & valid word  ->  scheme-specific fold
//
// The fold is hoisted OUT of the word loop here (one switch per call, three
// specialized loops), so the per-word body compiles down to the match
// computation plus one and/branch/popcount - and the priority loop returns
// at the first nonzero word, which is where the deep-geometry speedup
// comes from: a hit in the first 64 entries of a 512-cell block skips 7/8
// of the sweep AND the separate encode scan over a match-line vector.
//
// Instantiating TUs provide the match computation as a callable
//   std::uint64_t word_at(std::size_t base, std::size_t lanes)
// returning the 64 match bits for entries [base, base + lanes) with bits at
// or above `lanes` zero - the same tail contract as MatchKernelFn.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "src/cam/match_kernel.h"

namespace dspcam::cam::detail {

/// Single-key fused encode over `word_at`. Exactly the MatchKernelEncodeFn
/// contract: out_bits is written (valid-ANDed words, tail zero) only for
/// kOneHot and may be null otherwise.
template <typename MatchWord>
inline void fused_encode_sweep(const MatchWord& word_at,
                               const std::uint64_t* valid, std::size_t count,
                               EncodingScheme scheme, EncodedMatch& out,
                               std::uint64_t* out_bits) {
  const std::size_t words = (count + 63) / 64;
  out = EncodedMatch{};
  switch (scheme) {
    case EncodingScheme::kPriorityIndex: {
      for (std::size_t wi = 0; wi < words; ++wi) {
        const std::size_t base = wi * 64;
        const std::size_t lanes = count - base < 64 ? count - base : 64;
        const std::uint64_t m = word_at(base, lanes) & valid[wi];
        if (m != 0) {
          out.hit = true;
          out.first_match =
              static_cast<std::uint32_t>(base) +
              static_cast<std::uint32_t>(std::countr_zero(m));
          return;
        }
      }
      return;
    }
    case EncodingScheme::kOneHot: {
      bool hit = false;
      for (std::size_t wi = 0; wi < words; ++wi) {
        const std::size_t base = wi * 64;
        const std::size_t lanes = count - base < 64 ? count - base : 64;
        const std::uint64_t m = word_at(base, lanes) & valid[wi];
        out_bits[wi] = m;
        hit = hit || m != 0;
      }
      out.hit = hit;
      return;
    }
    case EncodingScheme::kMatchCount: {
      std::uint64_t total = 0;
      for (std::size_t wi = 0; wi < words; ++wi) {
        const std::size_t base = wi * 64;
        const std::size_t lanes = count - base < 64 ? count - base : 64;
        const std::uint64_t m = word_at(base, lanes) & valid[wi];
        total += static_cast<std::uint64_t>(std::popcount(m));
      }
      out.match_count = static_cast<std::uint32_t>(total);
      out.hit = total != 0;
      return;
    }
  }
}

}  // namespace dspcam::cam::detail
