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

}  // namespace

void append_avx2_kernels(std::vector<MatchKernel>& out) {
  // Priority order: narrowest first, the generic sweep last. Every entry
  // carries its fused sweep→encode.
  out.push_back({"eq32_avx2", &lo32_avx2<true>, true, true, 32, 0});
  out.back().encode_fn = &lo32_avx2_encode<true>;
  out.push_back({"eq64_avx2", &eq64_avx2, true, true, 0, 0});
  out.back().encode_fn = &eq64_avx2_encode;
  out.push_back({"masked32_avx2", &lo32_avx2<false>, true, false, 32, 0});
  out.back().encode_fn = &lo32_avx2_encode<false>;
  out.push_back({"generic_avx2", &generic_avx2, true, false, 0, 0,
                 /*generic=*/true});
  out.back().encode_fn = &generic_avx2_encode;
}

#else  // !DSPCAM_HAVE_AVX2: scalar-only build (forced or unsupported).

bool match_sweep_avx2_available() noexcept { return false; }

void append_avx2_kernels(std::vector<MatchKernel>&) {}

#endif

}  // namespace dspcam::cam::detail
