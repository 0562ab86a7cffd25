// The AVX2 sweep generic_avx2 (match_kernel.h) and the runtime AVX2 check
// (match_sweep.h).
//
// The only TU compiled with -mavx2 (see src/cam/CMakeLists.txt), so vector
// instructions cannot leak into code that runs before the runtime CPU
// check; the registration hook appends generic_avx2 only once
// match_sweep_avx2_available() says the host executes AVX2. With the flag
// unavailable - or DSPCAM_NO_SIMD on - the check reports false and the
// hook appends nothing.
//
// generic_avx2 runs the full ((stored ^ key) & nmask) == 0 formula on u64
// lanes, four entries per vector step, for every geometry.
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

/// 64 match bits for entries [base, base + lanes): the full formula on u64
/// lanes, four entries per 256-bit compare. Shared between the raw sweep
/// and the fused encode driver (match_kernel_fused.h).
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

GenericMatchWord match_word(const std::uint64_t* stored,
                            const std::uint64_t* nmask, Word key) {
  return {stored, nmask, _mm256_set1_epi64x(static_cast<long long>(key)), key};
}

void generic_avx2(const std::uint64_t* stored, const std::uint64_t* nmask,
                  Word key, std::size_t count, std::uint64_t* out_bits) {
  sweep_words(match_word(stored, nmask, key), count, out_bits);
}

/// The vector match word feeds the shared scheme fold while still in
/// flight - no out_bits store, no second scan, and the priority fold's
/// first-nonzero-word early exit.
void generic_avx2_encode(const std::uint64_t* stored,
                         const std::uint64_t* nmask,
                         const std::uint64_t* valid, Word key,
                         std::size_t count, EncodingScheme scheme,
                         EncodedMatch& out, std::uint64_t* out_bits) {
  fused_encode_sweep(match_word(stored, nmask, key), valid, count, scheme, out,
                     out_bits);
}

}  // namespace

void append_avx2_kernels(std::vector<MatchKernel>& out) {
  if (match_sweep_avx2_available()) {
    out.push_back({"generic_avx2", &generic_avx2, &generic_avx2_encode});
  }
}

#else  // !DSPCAM_HAVE_AVX2: scalar-only build (forced or unsupported).

bool match_sweep_avx2_available() noexcept { return false; }

void append_avx2_kernels(std::vector<MatchKernel>&) {}

#endif

}  // namespace dspcam::cam::detail
