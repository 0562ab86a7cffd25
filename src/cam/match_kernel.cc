// Scalar kernel family and the registry/selector (match_kernel.h).
//
// The depth-templated kernels below differ from the generic sweep only in
// that the trip counts are compile-time constants: the compiler fully
// unrolls the word loop and auto-vectorizes the 64-lane inner loop with
// whatever the baseline ISA offers, which is where the speedup on scalar
// builds comes from. The eq family additionally drops the nmask operand
// (mask-free BCAM: match == equality once every mask is the width mask).
#include "src/cam/match_kernel.h"

#include "src/cam/match_kernel_fused.h"
#include "src/cam/match_sweep.h"

namespace dspcam::cam {
namespace {

/// Mask-free equality sweep, any depth.
void eq_sweep(const std::uint64_t* stored, const std::uint64_t* /*nmask*/,
              Word key, std::size_t count, std::uint64_t* out_bits) {
  const std::size_t words = (count + 63) / 64;
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::size_t base = wi * 64;
    const std::size_t lanes = count - base < 64 ? count - base : 64;
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < lanes; ++b) {
      bits |= static_cast<std::uint64_t>(stored[base + b] == key) << b;
    }
    out_bits[wi] = bits;
  }
}

/// Depth-templated sweeps: kDepth is the block size (power of two), so the
/// word count and every lane count are compile-time constants.
template <std::size_t kDepth, bool kMaskFree>
void fixed_depth_sweep(const std::uint64_t* stored, const std::uint64_t* nmask,
                       Word key, std::size_t /*count*/, std::uint64_t* out_bits) {
  constexpr std::size_t kWords = (kDepth + 63) / 64;
  constexpr std::size_t kLanes = kDepth < 64 ? kDepth : 64;
  for (std::size_t wi = 0; wi < kWords; ++wi) {
    const std::size_t base = wi * 64;
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < kLanes; ++b) {
      const bool match = kMaskFree
                             ? stored[base + b] == key
                             : ((stored[base + b] ^ key) & nmask[base + b]) == 0;
      bits |= static_cast<std::uint64_t>(match) << b;
    }
    out_bits[wi] = bits;
  }
}

void generic_scalar(const std::uint64_t* stored, const std::uint64_t* nmask,
                    Word key, std::size_t count, std::uint64_t* out_bits) {
  detail::match_sweep_scalar(stored, nmask, key, count, out_bits);
}

// --- Fused sweep→encode variants (match_kernel_fused.h). ---
//
// The scheme fold is shared with every other kernel TU; what each kernel
// contributes is the 64-entry match-word computation the driver calls per
// word. Every registered kernel, the generic family included, carries the
// encode entry points, so the fast plane has exactly one dispatch path.

/// 64 match bits for entries [base, base + lanes), scalar formula.
template <bool kMaskFree>
struct ScalarMatchWord {
  const std::uint64_t* stored;
  const std::uint64_t* nmask;
  Word key;

  std::uint64_t operator()(std::size_t base, std::size_t lanes) const {
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < lanes; ++b) {
      const bool match = kMaskFree
                             ? stored[base + b] == key
                             : ((stored[base + b] ^ key) & nmask[base + b]) == 0;
      bits |= static_cast<std::uint64_t>(match) << b;
    }
    return bits;
  }
};

/// Any-depth fused encode (companion of eq_sweep, and with kMaskFree off
/// the generic_scalar formula).
template <bool kMaskFree>
void sweep_encode(const std::uint64_t* stored, const std::uint64_t* nmask,
                  const std::uint64_t* valid, Word key, std::size_t count,
                  EncodingScheme scheme, EncodedMatch& out,
                  std::uint64_t* out_bits) {
  detail::fused_encode_sweep(ScalarMatchWord<kMaskFree>{stored, nmask, key},
                             valid, count, scheme, out, out_bits);
}

/// Depth-templated fused encode: the driver inlines with `count` a
/// compile-time constant, so trip counts fold exactly as in
/// fixed_depth_sweep.
template <std::size_t kDepth, bool kMaskFree>
void fixed_depth_sweep_encode(const std::uint64_t* stored,
                              const std::uint64_t* nmask,
                              const std::uint64_t* valid, Word key,
                              std::size_t /*count*/, EncodingScheme scheme,
                              EncodedMatch& out, std::uint64_t* out_bits) {
  detail::fused_encode_sweep(ScalarMatchWord<kMaskFree>{stored, nmask, key},
                             valid, kDepth, scheme, out, out_bits);
}

/// Registers one depth-templated kernel with its fused encode.
template <std::size_t kDepth, bool kMaskFree>
void push_fixed_depth(std::vector<MatchKernel>& v, const char* name) {
  v.push_back({name, &fixed_depth_sweep<kDepth, kMaskFree>, false, kMaskFree,
               0, static_cast<unsigned>(kDepth)});
  v.back().encode_fn = &fixed_depth_sweep_encode<kDepth, kMaskFree>;
}

std::vector<MatchKernel> build_registry() {
  std::vector<MatchKernel> v;
  // Highest priority: the AVX2 tier (8-lane narrow-width packing, mask-free
  // equality, then the generic AVX2 sweep). On an AVX2 host it beats any
  // scalar unroll. Empty on no-AVX2 toolchains/builds.
  detail::append_avx2_kernels(v);

  // Mask-free scalar family, depth-unrolled first. Each entry also carries
  // its fused sweep→encode entry point.
  push_fixed_depth<16, true>(v, "eq_d16");
  push_fixed_depth<32, true>(v, "eq_d32");
  push_fixed_depth<64, true>(v, "eq_d64");
  push_fixed_depth<128, true>(v, "eq_d128");
  push_fixed_depth<256, true>(v, "eq_d256");
  push_fixed_depth<512, true>(v, "eq_d512");
  v.push_back({"eq", &eq_sweep, false, true, 0, 0});
  v.back().encode_fn = &sweep_encode<true>;

  // Masked scalar family (TCAM/RMCAM, and the fallback for binary blocks
  // whose mask plane a fault poke made non-uniform).
  push_fixed_depth<16, false>(v, "masked_d16");
  push_fixed_depth<32, false>(v, "masked_d32");
  push_fixed_depth<64, false>(v, "masked_d64");
  push_fixed_depth<128, false>(v, "masked_d128");
  push_fixed_depth<256, false>(v, "masked_d256");
  push_fixed_depth<512, false>(v, "masked_d512");

  // Terminal fallback: matches every geometry unconditionally.
  v.push_back({"generic_scalar", &generic_scalar, false, false, 0, 0,
               /*generic=*/true});
  v.back().encode_fn = &sweep_encode<false>;
  return v;
}

}  // namespace

const std::vector<MatchKernel>& match_kernel_registry() {
  static const std::vector<MatchKernel> registry = build_registry();
  return registry;
}

const MatchKernel& select_match_kernel(const MatchKernelQuery& q) {
  const bool avx2 = detail::match_sweep_avx2_available();
  for (const MatchKernel& k : match_kernel_registry()) {
    if (q.force_generic && !k.generic) continue;
    if (k.needs_avx2 && !avx2) continue;
    if (k.needs_uniform_mask &&
        (!q.allow_mask_free || q.kind != CamKind::kBinary)) {
      continue;
    }
    if (k.max_width != 0 && q.data_width > k.max_width) continue;
    if (k.depth != 0 && q.block_size != k.depth) continue;
    return k;
  }
  // Unreachable: generic_scalar has no requirements. Keep the compiler happy.
  return match_kernel_registry().back();
}

}  // namespace dspcam::cam
