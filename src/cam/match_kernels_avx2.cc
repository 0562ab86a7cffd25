// AVX2 match kernels (match_kernel.h) and the runtime AVX2 check
// (match_sweep.h).
//
// The only TU compiled with -mavx2 (see src/cam/CMakeLists.txt), so vector
// instructions cannot leak into code that runs before the runtime CPU
// check; the registry only selects these kernels once
// match_sweep_avx2_available() says the host executes AVX2. With the flag
// unavailable - or DSPCAM_NO_SIMD on - the check reports false and the
// registration hook appends nothing.
//
// Four kernels, registered (in priority order) as eq32_avx2, eq64_avx2,
// masked32_avx2, generic_avx2:
//   - eq32_avx2 / masked32_avx2: data_width <= 32 means the significant
//     bits of every packed u64 fit its low half (stored words and keys are
//     truncated to the width; nmask never exceeds low_bits(width) except
//     for fault-cleared high MASK bits, which cannot flip a compare because
//     the corresponding (stored ^ key) bits are zero). Eight entries'
//     low halves are gathered into one 256-bit vector, doubling the
//     compare throughput - the constant-folded key-width win.
//   - eq64_avx2: mask-free BCAM equality on u64 lanes. Two loads per four
//     entries instead of three (no nmask stream).
//   - generic_avx2: the full ((stored ^ key) & nmask) == 0 formula on u64
//     lanes, four entries per vector step; it matches every geometry.
#include "src/cam/match_kernel.h"
#include "src/cam/match_kernel_fused.h"
#include "src/cam/match_sweep.h"

#if defined(DSPCAM_HAVE_AVX2)
#include <immintrin.h>
#endif

namespace dspcam::cam::detail {

#if defined(DSPCAM_HAVE_AVX2)

bool match_sweep_avx2_available() noexcept {
#if defined(__GNUC__) || defined(__clang__)
  static const bool available = __builtin_cpu_supports("avx2") != 0;
  return available;
#else
  return false;
#endif
}

namespace {

/// Raw sweep over a per-word match callable (the match_kernel_fused.h
/// word_at contract): ceil(count / 64) words of match bits.
template <typename MatchWord>
inline void sweep_words(const MatchWord& word_at, std::size_t count,
                        std::uint64_t* out_bits) {
  const std::size_t words = (count + 63) / 64;
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::size_t base = wi * 64;
    const std::size_t lanes = count - base < 64 ? count - base : 64;
    out_bits[wi] = word_at(base, lanes);
  }
}

/// Gathers the low 32 bits of eight consecutive packed u64 entries, in
/// entry order, into the eight 32-bit lanes of one vector.
inline __m256i load_lo32_x8(const std::uint64_t* p) {
  const __m256 a = _mm256_castsi256_ps(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  const __m256 b = _mm256_castsi256_ps(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4)));
  // Per 128-bit half: lanes {0,2} of a then {0,2} of b = the low dwords.
  // Order after the shuffle is {e0,e1,e4,e5 | e2,e3,e6,e7}; the 64-bit
  // permute restores entry order.
  const __m256i packed = _mm256_castps_si256(
      _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)));
  return _mm256_permute4x64_epi64(packed, _MM_SHUFFLE(3, 1, 2, 0));
}

/// 64 match bits for entries [base, base + lanes): mask-free equality on
/// u64 lanes, four entries per 256-bit compare. Shared between the raw
/// sweep and the fused encode driver (match_kernel_fused.h).
struct Eq64MatchWord {
  const std::uint64_t* stored;
  __m256i vkey;
  Word key;

  std::uint64_t operator()(std::size_t base, std::size_t lanes) const {
    std::uint64_t bits = 0;
    std::size_t b = 0;
    for (; b + 4 <= lanes; b += 4) {
      const __m256i s = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(stored + base + b));
      const __m256i eq = _mm256_cmpeq_epi64(s, vkey);
      const unsigned lane_bits = static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
      bits |= static_cast<std::uint64_t>(lane_bits) << b;
    }
    for (; b < lanes; ++b) {
      bits |= static_cast<std::uint64_t>(stored[base + b] == key) << b;
    }
    return bits;
  }
};

/// 64 match bits for entries [base, base + lanes): narrow-width compare,
/// eight 32-bit lanes per step. kMaskFree drops the nmask gather as well.
template <bool kMaskFree>
struct Lo32MatchWord {
  const std::uint64_t* stored;
  const std::uint64_t* nmask;
  __m256i vkey;
  __m256i zero;
  Word key;

  std::uint64_t operator()(std::size_t base, std::size_t lanes) const {
    std::uint64_t bits = 0;
    std::size_t b = 0;
    for (; b + 8 <= lanes; b += 8) {
      const __m256i s = load_lo32_x8(stored + base + b);
      __m256i eq;
      if (kMaskFree) {
        eq = _mm256_cmpeq_epi32(s, vkey);
      } else {
        const __m256i m = load_lo32_x8(nmask + base + b);
        const __m256i diff = _mm256_and_si256(_mm256_xor_si256(s, vkey), m);
        eq = _mm256_cmpeq_epi32(diff, zero);
      }
      const unsigned lane_bits = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(eq)));
      bits |= static_cast<std::uint64_t>(lane_bits) << b;
    }
    for (; b < lanes; ++b) {
      const bool match = kMaskFree
                             ? stored[base + b] == key
                             : ((stored[base + b] ^ key) & nmask[base + b]) == 0;
      bits |= static_cast<std::uint64_t>(match) << b;
    }
    return bits;
  }
};

/// Mask-free equality on u64 lanes (any depth).
void eq64_avx2(const std::uint64_t* stored, const std::uint64_t* /*nmask*/,
               Word key, std::size_t count, std::uint64_t* out_bits) {
  sweep_words(
      Eq64MatchWord{stored, _mm256_set1_epi64x(static_cast<long long>(key)),
                    key},
      count, out_bits);
}

/// Narrow-width sweeps: eight 32-bit lanes per step.
template <bool kMaskFree>
void lo32_avx2(const std::uint64_t* stored, const std::uint64_t* nmask,
               Word key, std::size_t count, std::uint64_t* out_bits) {
  sweep_words(Lo32MatchWord<kMaskFree>{stored, nmask,
                                       _mm256_set1_epi32(static_cast<int>(key)),
                                       _mm256_setzero_si256(), key},
              count, out_bits);
}

/// Fused sweep→encode variants: the vector match word feeds the shared
/// scheme fold while still in flight - no out_bits store, no second scan,
/// and the priority fold's first-nonzero-word early exit.
void eq64_avx2_encode(const std::uint64_t* stored,
                      const std::uint64_t* /*nmask*/,
                      const std::uint64_t* valid, Word key, std::size_t count,
                      EncodingScheme scheme, EncodedMatch& out,
                      std::uint64_t* out_bits) {
  fused_encode_sweep(
      Eq64MatchWord{stored, _mm256_set1_epi64x(static_cast<long long>(key)),
                    key},
      valid, count, scheme, out, out_bits);
}

template <bool kMaskFree>
void lo32_avx2_encode(const std::uint64_t* stored, const std::uint64_t* nmask,
                      const std::uint64_t* valid, Word key, std::size_t count,
                      EncodingScheme scheme, EncodedMatch& out,
                      std::uint64_t* out_bits) {
  fused_encode_sweep(
      Lo32MatchWord<kMaskFree>{stored, nmask,
                               _mm256_set1_epi32(static_cast<int>(key)),
                               _mm256_setzero_si256(), key},
      valid, count, scheme, out, out_bits);
}

/// Multi-key mask-free equality on u64 lanes, for a compile-time batch
/// width: one stored load per four entries serves every broadcast key, and
/// with kNk a constant the per-key inner loop fully unrolls - the bit
/// accumulators and key vectors stay in registers, which is the entire
/// point (a runtime-width loop spills them and costs MORE than kNk single
/// sweeps).
template <std::size_t kNk>
void eq64_avx2_multi_impl(const std::uint64_t* stored, const Word* keys,
                          std::size_t count, std::uint64_t* out_bits) {
  __m256i vkeys[kNk];
  for (std::size_t k = 0; k < kNk; ++k) {
    vkeys[k] = _mm256_set1_epi64x(static_cast<long long>(keys[k]));
  }
  const std::size_t words = (count + 63) / 64;
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::size_t base = wi * 64;
    const std::size_t lanes = count - base < 64 ? count - base : 64;
    std::uint64_t bits[kNk] = {};
    std::size_t b = 0;
    for (; b + 4 <= lanes; b += 4) {
      const __m256i s = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(stored + base + b));
      for (std::size_t k = 0; k < kNk; ++k) {
        const __m256i eq = _mm256_cmpeq_epi64(s, vkeys[k]);
        const unsigned lane_bits = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
        bits[k] |= static_cast<std::uint64_t>(lane_bits) << b;
      }
    }
    for (; b < lanes; ++b) {
      const std::uint64_t s = stored[base + b];
      for (std::size_t k = 0; k < kNk; ++k) {
        bits[k] |= static_cast<std::uint64_t>(s == keys[k]) << b;
      }
    }
    for (std::size_t k = 0; k < kNk; ++k) out_bits[k * words + wi] = bits[k];
  }
}

/// Chunked dispatch: four keys per pass is the register-pressure sweet spot
/// (4 broadcast vectors + sweep operands fit the 16 ymm registers; wider
/// instantiations spill the accumulators and cost more than two passes).
/// Each extra pass re-streams the stored array, which stays cheap - the
/// expensive per-entry work is amortized within a pass. Handles any nkeys,
/// so batches beyond the fusion contract are still correct.
void eq64_avx2_multi(const std::uint64_t* stored,
                     const std::uint64_t* /*nmask*/, const Word* keys,
                     std::size_t nkeys, std::size_t count,
                     std::uint64_t* out_bits) {
  const std::size_t words = (count + 63) / 64;
  std::size_t k = 0;
  for (; nkeys - k >= 4; k += 4) {
    eq64_avx2_multi_impl<4>(stored, keys + k, count, out_bits + k * words);
  }
  switch (nkeys - k) {
    case 3:
      return eq64_avx2_multi_impl<3>(stored, keys + k, count,
                                     out_bits + k * words);
    case 2:
      return eq64_avx2_multi_impl<2>(stored, keys + k, count,
                                     out_bits + k * words);
    case 1:
      return eq64_avx2(stored, nullptr, keys[k], count, out_bits + k * words);
    default:
      return;
  }
}

/// Multi-key narrow-width sweep for a compile-time batch width: the
/// gathered low-dword vectors (the expensive part of lo32_avx2) are built
/// once per eight entries and compared against every broadcast key, with
/// the per-key loop unrolled so the accumulators stay in registers.
template <bool kMaskFree, std::size_t kNk>
void lo32_avx2_multi_impl(const std::uint64_t* stored,
                          const std::uint64_t* nmask, const Word* keys,
                          std::size_t count, std::uint64_t* out_bits) {
  __m256i vkeys[kNk];
  for (std::size_t k = 0; k < kNk; ++k) {
    vkeys[k] = _mm256_set1_epi32(static_cast<int>(keys[k]));
  }
  const __m256i zero = _mm256_setzero_si256();
  const std::size_t words = (count + 63) / 64;
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::size_t base = wi * 64;
    const std::size_t lanes = count - base < 64 ? count - base : 64;
    std::uint64_t bits[kNk] = {};
    std::size_t b = 0;
    // Two interleaved entry groups per iteration: each key's accumulator OR
    // chain is serial, so pairing groups doubles the independent work in
    // flight and hides the gather-shuffle and movemask latencies.
    for (; b + 16 <= lanes; b += 16) {
      const __m256i s0 = load_lo32_x8(stored + base + b);
      const __m256i s1 = load_lo32_x8(stored + base + b + 8);
      __m256i m0 = zero, m1 = zero;
      if (!kMaskFree) {
        m0 = load_lo32_x8(nmask + base + b);
        m1 = load_lo32_x8(nmask + base + b + 8);
      }
      for (std::size_t k = 0; k < kNk; ++k) {
        __m256i eq0, eq1;
        if (kMaskFree) {
          eq0 = _mm256_cmpeq_epi32(s0, vkeys[k]);
          eq1 = _mm256_cmpeq_epi32(s1, vkeys[k]);
        } else {
          const __m256i d0 =
              _mm256_and_si256(_mm256_xor_si256(s0, vkeys[k]), m0);
          const __m256i d1 =
              _mm256_and_si256(_mm256_xor_si256(s1, vkeys[k]), m1);
          eq0 = _mm256_cmpeq_epi32(d0, zero);
          eq1 = _mm256_cmpeq_epi32(d1, zero);
        }
        const auto lo = static_cast<std::uint64_t>(static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(eq0))));
        const auto hi = static_cast<std::uint64_t>(static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(eq1))));
        bits[k] |= (lo | (hi << 8)) << b;
      }
    }
    for (; b + 8 <= lanes; b += 8) {
      const __m256i s = load_lo32_x8(stored + base + b);
      __m256i m = zero;
      if (!kMaskFree) m = load_lo32_x8(nmask + base + b);
      for (std::size_t k = 0; k < kNk; ++k) {
        __m256i eq;
        if (kMaskFree) {
          eq = _mm256_cmpeq_epi32(s, vkeys[k]);
        } else {
          const __m256i diff =
              _mm256_and_si256(_mm256_xor_si256(s, vkeys[k]), m);
          eq = _mm256_cmpeq_epi32(diff, zero);
        }
        const unsigned lane_bits = static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(eq)));
        bits[k] |= static_cast<std::uint64_t>(lane_bits) << b;
      }
    }
    for (; b < lanes; ++b) {
      const std::uint64_t s = stored[base + b];
      const std::uint64_t nm = kMaskFree ? 0 : nmask[base + b];
      for (std::size_t k = 0; k < kNk; ++k) {
        const bool match = kMaskFree ? s == keys[k] : ((s ^ keys[k]) & nm) == 0;
        bits[k] |= static_cast<std::uint64_t>(match) << b;
      }
    }
    for (std::size_t k = 0; k < kNk; ++k) out_bits[k * words + wi] = bits[k];
  }
}

/// Same chunked dispatch as eq64_avx2_multi: four keys per pass.
template <bool kMaskFree>
void lo32_avx2_multi(const std::uint64_t* stored, const std::uint64_t* nmask,
                     const Word* keys, std::size_t nkeys, std::size_t count,
                     std::uint64_t* out_bits) {
  const std::size_t words = (count + 63) / 64;
  std::size_t k = 0;
  for (; nkeys - k >= 4; k += 4) {
    lo32_avx2_multi_impl<kMaskFree, 4>(stored, nmask, keys + k, count,
                                       out_bits + k * words);
  }
  switch (nkeys - k) {
    case 3:
      return lo32_avx2_multi_impl<kMaskFree, 3>(stored, nmask, keys + k, count,
                                                out_bits + k * words);
    case 2:
      return lo32_avx2_multi_impl<kMaskFree, 2>(stored, nmask, keys + k, count,
                                                out_bits + k * words);
    case 1:
      return lo32_avx2<kMaskFree>(stored, nmask, keys[k], count,
                                  out_bits + k * words);
    default:
      return;
  }
}

/// 64 generic match bits for entries [base, base + lanes): the full
/// formula on u64 lanes, four entries per 256-bit compare.
struct GenericMatchWord {
  const std::uint64_t* stored;
  const std::uint64_t* nmask;
  __m256i vkey;
  Word key;

  std::uint64_t operator()(std::size_t base, std::size_t lanes) const {
    const __m256i zero = _mm256_setzero_si256();
    std::uint64_t bits = 0;
    std::size_t b = 0;
    for (; b + 4 <= lanes; b += 4) {
      const __m256i s = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(stored + base + b));
      const __m256i m = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(nmask + base + b));
      const __m256i eq = _mm256_cmpeq_epi64(
          _mm256_and_si256(_mm256_xor_si256(s, vkey), m), zero);
      // One sign bit per 64-bit lane: exactly the four match flags.
      bits |= static_cast<std::uint64_t>(static_cast<unsigned>(
                  _mm256_movemask_pd(_mm256_castsi256_pd(eq))))
              << b;
    }
    for (; b < lanes; ++b) {
      bits |= static_cast<std::uint64_t>(
                  ((stored[base + b] ^ key) & nmask[base + b]) == 0)
              << b;
    }
    return bits;
  }
};

void generic_avx2(const std::uint64_t* stored, const std::uint64_t* nmask,
                  Word key, std::size_t count, std::uint64_t* out_bits) {
  sweep_words(
      GenericMatchWord{stored, nmask,
                       _mm256_set1_epi64x(static_cast<long long>(key)), key},
      count, out_bits);
}

void generic_avx2_encode(const std::uint64_t* stored,
                         const std::uint64_t* nmask,
                         const std::uint64_t* valid, Word key,
                         std::size_t count, EncodingScheme scheme,
                         EncodedMatch& out, std::uint64_t* out_bits) {
  fused_encode_sweep(
      GenericMatchWord{stored, nmask,
                       _mm256_set1_epi64x(static_cast<long long>(key)), key},
      valid, count, scheme, out, out_bits);
}

/// Multi-key generic sweep: the stored/nmask vectors are loaded once per
/// four-entry step and compared against every broadcast key, so a batch of
/// B keys costs one operand stream instead of B.
void generic_avx2_multi(const std::uint64_t* stored,
                        const std::uint64_t* nmask, const Word* keys,
                        std::size_t nkeys, std::size_t count,
                        std::uint64_t* out_bits) {
  __m256i vkeys[kMaxFusionKeys];
  const std::size_t nk = nkeys < kMaxFusionKeys ? nkeys : kMaxFusionKeys;
  for (std::size_t k = 0; k < nk; ++k) {
    vkeys[k] = _mm256_set1_epi64x(static_cast<long long>(keys[k]));
  }
  const std::size_t words = (count + 63) / 64;
  // Contract is <= kMaxFusionKeys; stay correct beyond it anyway.
  for (std::size_t k = nk; k < nkeys; ++k) {
    generic_avx2(stored, nmask, keys[k], count, out_bits + k * words);
  }
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::size_t base = wi * 64;
    const std::size_t lanes = count - base < 64 ? count - base : 64;
    std::uint64_t bits[kMaxFusionKeys] = {};
    std::size_t b = 0;
    for (; b + 4 <= lanes; b += 4) {
      const __m256i s = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(stored + base + b));
      const __m256i m = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(nmask + base + b));
      for (std::size_t k = 0; k < nk; ++k) {
        const __m256i diff = _mm256_and_si256(_mm256_xor_si256(s, vkeys[k]), m);
        const __m256i eq = _mm256_cmpeq_epi64(diff, zero);
        const unsigned lane_bits = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
        bits[k] |= static_cast<std::uint64_t>(lane_bits) << b;
      }
    }
    for (; b < lanes; ++b) {
      const std::uint64_t s = stored[base + b];
      const std::uint64_t nm = nmask[base + b];
      for (std::size_t k = 0; k < nk; ++k) {
        bits[k] |= static_cast<std::uint64_t>(((s ^ keys[k]) & nm) == 0) << b;
      }
    }
    for (std::size_t k = 0; k < nk; ++k) out_bits[k * words + wi] = bits[k];
  }
}

}  // namespace

void append_avx2_kernels(std::vector<MatchKernel>& out) {
  // Priority order: narrowest first, the generic sweep last. Every entry
  // carries the full fused complement (multi-key sweep plus single- and
  // multi-key sweep→encode).
  out.push_back({"eq32_avx2", &lo32_avx2<true>, true, true, 32, 0});
  out.back().multi_fn = &lo32_avx2_multi<true>;
  out.back().encode_fn = &lo32_avx2_encode<true>;
  out.back().multi_encode_fn = &multi_sweep_encode<&lo32_avx2_multi<true>>;
  out.push_back({"eq64_avx2", &eq64_avx2, true, true, 0, 0});
  out.back().multi_fn = &eq64_avx2_multi;
  out.back().encode_fn = &eq64_avx2_encode;
  out.back().multi_encode_fn = &multi_sweep_encode<&eq64_avx2_multi>;
  out.push_back({"masked32_avx2", &lo32_avx2<false>, true, false, 32, 0});
  out.back().multi_fn = &lo32_avx2_multi<false>;
  out.back().encode_fn = &lo32_avx2_encode<false>;
  out.back().multi_encode_fn = &multi_sweep_encode<&lo32_avx2_multi<false>>;
  out.push_back({"generic_avx2", &generic_avx2, true, false, 0, 0,
                 /*generic=*/true});
  out.back().multi_fn = &generic_avx2_multi;
  out.back().encode_fn = &generic_avx2_encode;
  out.back().multi_encode_fn = &multi_sweep_encode<&generic_avx2_multi>;
}

#else  // !DSPCAM_HAVE_AVX2: scalar-only build (forced or unsupported).

bool match_sweep_avx2_available() noexcept { return false; }

void append_avx2_kernels(std::vector<MatchKernel>&) {}

#endif

}  // namespace dspcam::cam::detail
