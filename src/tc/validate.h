// Cross-validation of the TC cost model against the cycle-accurate CAM.
//
// The accelerator models in this library compute intersection *counts*
// analytically (so multi-million-edge graphs run in seconds). This helper
// executes the same per-edge flow on the real cycle-accurate CamUnit -
// reset, stream adj(u) in update beats, stream adj(v) as multi-key search
// beats, count hits - and returns the triangle count the hardware datapath
// produces. Tests require it to equal the analytic result exactly.
#pragma once

#include <cstdint>

#include "src/graph/csr.h"
#include "src/system/backend.h"
#include "src/tc/cam_accel.h"

namespace dspcam::tc {

/// Runs triangle counting through the cycle-accurate CamUnit built from
/// `cfg.unit_config()`. Intended for small graphs (every CAM beat is
/// simulated cycle by cycle). Lists longer than the CAM capacity are
/// chunked exactly as the cost model assumes.
std::uint64_t count_triangles_with_unit(const graph::CsrGraph& g,
                                        const CamTcAccelerator::Config& cfg = CamTcAccelerator::Config{});

/// Same per-edge flow over an arbitrary CamBackend via the async driver:
/// reset + group reconfigure per chunk, stream adj(u) as update beats,
/// stream adj(v) as multi-key search beats, count hits. Lets the sharded
/// engine execute the exact same kernel the DSP unit runs. Group count per chunk is clamped to the backend's
/// max_groups(). Lists longer than `chunk_capacity` (default: the backend's
/// capacity) are chunked.
std::uint64_t count_triangles_with_backend(const graph::CsrGraph& g,
                                           system::CamBackend& backend,
                                           std::uint64_t chunk_capacity = 0);

}  // namespace dspcam::tc
