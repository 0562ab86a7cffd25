// Match-kernel registry for the EvalMode::kFast sweep: one full-formula
// sweep per ISA.
//
// The paper's DSP48E2 CAM has one compare datapath - (A:B) XOR C fed to the
// pattern detector under MASK - and BCAM, TCAM and RMCAM differ only in the
// MASK. The simulator mirrors that with one sweep formula for every
// geometry, compiled once per instruction set:
//
//   - generic_avx2: four u64 lanes per 256-bit compare
//     (match_kernels_avx2.cc, the only -mavx2 TU). Registered only where
//     match_sweep_avx2_available() is true, ahead of the scalar sweep.
//   - generic_scalar: the portable loop (match_sweep.h), always registered
//     and always last.
//
// A plane sweeps with the registry's first entry (fast_plane.h). Deep binary
// planes with a uniform mask plane answer from the exact-match index
// instead, so no benchmark workload sweeps at all (DESIGN.md §10).
//
// Both kernels compute the same function over the packed pre-edge arrays
// (fast_plane.h):  out_bits[i / 64] bit (i % 64) = ((stored[i] ^ key) & nmask[i]) == 0
// for i in [0, count), with tail bits at or above `count` in the last
// written word guaranteed zero. Kernels are PURE INTEGER transforms, so
// each is bit-identical to the reference DSP model by construction -
// pinned by tests/cam/match_kernel_test.cc against the golden formula and
// by the ref-vs-fast lockstep fuzz end to end.
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

/// One registered kernel: both entry points compute the same match bits
/// (MatchKernelRegistry.DescriptorsAreSane pins that both are set).
struct MatchKernel {
  const char* name;  ///< Stable identifier (stats, telemetry, bench rows).
  MatchKernelFn fn;
  MatchKernelEncodeFn encode_fn = nullptr;  ///< Fused sweep→encode (the fast
                                            ///< plane's sweep).
};

/// Geometry a caller may describe to select_match_kernel(). No field is
/// read: every geometry gets the same sweep. The type stays because the
/// end-to-end bench fills it in.
struct MatchKernelQuery {
  unsigned data_width = 32;
  unsigned block_size = 128;
};

/// Every kernel this host runs, best first: generic_avx2 (where it runs),
/// then generic_scalar.
const std::vector<MatchKernel>& match_kernel_registry();

/// The registry's first entry, whatever the query; the returned reference
/// is valid for the process lifetime.
const MatchKernel& select_match_kernel(const MatchKernelQuery& q);

namespace detail {
/// Registration hook for the AVX2 translation unit (match_kernels_avx2.cc,
/// the only -mavx2 TU): appends generic_avx2 when
/// match_sweep_avx2_available(), nothing otherwise.
void append_avx2_kernels(std::vector<MatchKernel>& out);
}  // namespace detail

}  // namespace dspcam::cam
