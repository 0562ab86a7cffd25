// The scalar sweep's fused encode and the registry (match_kernel.h).
#include "src/cam/match_kernel.h"

#include "src/cam/match_kernel_fused.h"
#include "src/cam/match_sweep.h"

namespace dspcam::cam {
namespace {

void generic_scalar_encode(const std::uint64_t* stored,
                           const std::uint64_t* nmask,
                           const std::uint64_t* valid, Word key,
                           std::size_t count, EncodingScheme scheme,
                           EncodedMatch& out, std::uint64_t* out_bits) {
  detail::fused_encode_sweep(detail::ScalarMatchWord{stored, nmask, key},
                             valid, count, scheme, out, out_bits);
}

std::vector<MatchKernel> build_registry() {
  std::vector<MatchKernel> v;
  detail::append_avx2_kernels(v);
  v.push_back({"generic_scalar", &detail::match_sweep_scalar,
               &generic_scalar_encode});
  return v;
}

}  // namespace

const std::vector<MatchKernel>& match_kernel_registry() {
  static const std::vector<MatchKernel> registry = build_registry();
  return registry;
}

const MatchKernel& select_match_kernel(const MatchKernelQuery& /*q*/) {
  return match_kernel_registry().front();
}

}  // namespace dspcam::cam
