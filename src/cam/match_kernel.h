// Geometry-specialized match-kernel registry for the EvalMode::kFast path.
//
// The paper's DSP-CAM wins by specializing the match datapath to a concrete
// geometry (key width, block depth, mask mode); this registry is the
// simulator-side analogue. Instead of funnelling every configuration through
// one generic sweep, a family of kernels is compiled ahead of time - each a
// template instantiation with the geometry constant-folded - and the best
// one is selected per BlockConfig when the block is constructed:
//
//   - mask-free BCAM kernels (eq*): a binary CAM whose mask plane is still
//     uniform (every entry carries the plain width mask) reduces the match
//     to stored[i] == key, skipping the ~MASK load entirely.
//   - narrow-width kernels (eq32/masked32, AVX2): when data_width <= 32,
//     stored words and compare masks occupy only the low half of each
//     packed u64, so 8 entries are compared per 256-bit vector instead
//     of 4 (the "constant-folded key width" specialization).
//   - depth-unrolled kernels (eq_dN/masked_dN): the block depth is a
//     template parameter, so the sweep has compile-time trip counts the
//     compiler fully unrolls/auto-vectorizes - the win on scalar-only
//     builds (DSPCAM_NO_SIMD) and non-AVX2 hosts.
//   - generic kernels (generic_avx2/generic_scalar): the plain
//     ((stored ^ key) & nmask) == 0 sweep on u64 lanes (match_sweep.h for
//     the scalar loop), matching every geometry. generic_scalar is the
//     guaranteed terminal fallback.
//
// Every kernel computes the same function over the packed pre-edge arrays
// (fast_plane.h):  out_bits[i / 64] bit (i % 64) = ((stored[i] ^ key) & nmask[i]) == 0
// for i in [0, count), with tail bits at or above `count` in the last
// written word guaranteed zero. Kernels are PURE INTEGER transforms, so
// every registered kernel is bit-identical to the reference DSP model by
// construction - pinned by tests/cam/match_kernel_test.cc against the
// golden formula and by the ref-vs-fast lockstep fuzz end to end.
//
// Mask-free kernels are only *selected* for binary planes, and only
// *dispatched* while the plane's mask plane is uniform: a fault-injection
// poke (src/fault/) can write an arbitrary per-entry MASK even on a BCAM,
// so FastPlane tracks uniformity and falls back to `masked_fallback`
// (a kernel ignoring no operand) the moment the plane diverges.
//
// BlockConfig::force_generic_kernel restricts the selection to the generic
// family; the lockstep fuzz runs forced-generic configurations so the
// fallback path stays exercised.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/cam/types.h"

namespace dspcam::cam {

/// Raw match sweep: writes ceil(count / 64) words of match bits (the caller
/// masks with the packed valid flags). Same contract as match_sweep.h.
using MatchKernelFn = void (*)(const std::uint64_t* stored,
                               const std::uint64_t* nmask, Word key,
                               std::size_t count, std::uint64_t* out_bits);

/// The scalar half of a finished block result: everything the encoder
/// produces except the one-hot match vector (which needs a buffer). A fused
/// encode kernel fills one of these instead of materializing match lines.
struct EncodedMatch {
  std::uint32_t first_match = 0;  ///< Lowest matching cell (priority scheme).
  std::uint32_t match_count = 0;  ///< Population count (match-count scheme).
  bool hit = false;

  bool operator==(const EncodedMatch&) const = default;
};

/// Fused sweep + valid-AND + encode: one pass over the packed arrays emits
/// the finished result under `scheme` - no match-line BitVec, no second
/// scan. `valid` is the packed valid-flag array (64 flags per word, bits at
/// or above `count` clear). Semantics per scheme, always bit-identical to
/// encode_match_lines() over the valid-ANDed sweep of `fn`:
///   - kPriorityIndex: per-word `match & valid` + countr_zero, stopping at
///     the first nonzero word (the deep-geometry win); `out_bits` ignored
///     (may be null).
///   - kOneHot: the ceil(count / 64) valid-ANDed match words are written to
///     `out_bits` (tail bits at or above `count` zero); hit is their OR.
///   - kMatchCount: per-word popcount accumulation; `out_bits` ignored.
using MatchKernelEncodeFn = void (*)(const std::uint64_t* stored,
                                     const std::uint64_t* nmask,
                                     const std::uint64_t* valid, Word key,
                                     std::size_t count, EncodingScheme scheme,
                                     EncodedMatch& out, std::uint64_t* out_bits);

/// One registered kernel: the compiled entry points plus the descriptor the
/// selector matches against a block geometry. Every kernel sets both entry
/// points (MatchKernelRegistry.DescriptorsAreSane pins it), and they compute
/// the same match bits.
struct MatchKernel {
  const char* name;            ///< Stable identifier (stats, telemetry, bench rows).
  MatchKernelFn fn;
  bool needs_avx2 = false;     ///< Selectable only when the AVX2 sweep runs here.
  bool needs_uniform_mask = false;  ///< Mask-free family: every entry's compare
                                    ///< mask must equal the plain width mask
                                    ///< (binary blocks; dispatch-checked).
  unsigned max_width = 0;      ///< Selectable when data_width <= this (0 = any).
  unsigned depth = 0;          ///< Selectable only at this exact block_size
                               ///< (0 = any); such kernels may ignore `count`.
  bool generic = false;        ///< Guaranteed-fallback family (the plain
                               ///< AVX2/scalar sweeps).
  MatchKernelEncodeFn encode_fn = nullptr;  ///< Fused sweep→encode (the fast
                                            ///< plane's dispatch).
};

/// The geometry fingerprint a selection runs against.
struct MatchKernelQuery {
  CamKind kind = CamKind::kBinary;
  unsigned data_width = 32;
  unsigned block_size = 128;
  bool force_generic = false;   ///< Restrict to the generic family.
  bool allow_mask_free = true;  ///< false: skip needs_uniform_mask kernels
                                ///< (used to pick the non-uniform fallback).
};

/// Every compiled kernel, priority order (first matching entry wins). AVX2
/// entries are present even on hosts that cannot run them; the selector
/// skips them there.
const std::vector<MatchKernel>& match_kernel_registry();

/// The best kernel for `q`; never fails (generic_scalar matches everything).
/// The returned reference is valid for the process lifetime.
const MatchKernel& select_match_kernel(const MatchKernelQuery& q);

namespace detail {
/// Registration hook for the AVX2 translation unit (match_kernels_avx2.cc,
/// the only -mavx2 TU): the specialized AVX2 tier followed by generic_avx2.
/// Appends nothing when the toolchain lacks AVX2 support or DSPCAM_NO_SIMD
/// is on.
void append_avx2_kernels(std::vector<MatchKernel>& out);
}  // namespace detail

}  // namespace dspcam::cam
