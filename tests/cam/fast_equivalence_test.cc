// Lockstep equivalence fuzz: the vectorized fast evaluation path must be
// cycle- and bit-identical to the per-cell DSP48E2 reference model. Two
// CamUnits differing ONLY in EvalMode are driven with the same random beat
// stream (updates, searches, invalidates, addressed writes, resets, group
// reconfiguration, routing-table remaps, fault pokes on parity-protected
// geometries, and fused staging on the fast unit), and every cycle the
// complete observable surface is compared: search responses (all result
// fields, parity flag included), update acks, idle/quiescent state, the
// active-block occupancy - plus the full stored/mask/valid/parity arrays at
// checkpoints.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/cam/mask.h"
#include "src/cam/unit.h"
#include "src/common/random.h"
#include "tests/cam/testbench.h"

namespace dspcam::cam {
namespace {

struct EquivParams {
  CamKind kind;
  unsigned data_width;
  unsigned unit_size;
  unsigned block_size;
  unsigned groups;
  bool output_buffer;
  EncodingScheme encoding;
  unsigned cycles;
  std::uint64_t seed;
  /// Pin the generic sweep instead of the registry's specialized kernel
  /// (the fallback path must stay just as bit-identical).
  bool force_generic = false;
  /// Parity-protected blocks, with random fault pokes corrupting entries.
  bool parity = false;
  /// Periodically drain both units and remap a random block to another
  /// group, so groups become uneven and non-contiguous.
  bool remap = false;
  /// Stage every search beat through the fast unit's fusion path before
  /// issuing it (the reference unit cannot stage; results must not care).
  bool fuse = false;
};

class FastEquivalence : public ::testing::TestWithParam<EquivParams> {};

UnitConfig make_config(const EquivParams& p, EvalMode mode) {
  UnitConfig cfg;
  cfg.block.cell.kind = p.kind;
  cfg.block.cell.data_width = p.data_width;
  cfg.block.block_size = p.block_size;
  cfg.block.bus_width = p.data_width * 4;
  cfg.block.output_buffer = p.output_buffer;
  cfg.block.encoding = p.encoding;
  cfg.block.eval_mode = mode;
  cfg.block.force_generic_kernel = p.force_generic;
  cfg.block.parity = p.parity;
  cfg.unit_size = p.unit_size;
  cfg.bus_width = p.data_width * 4;
  cfg.initial_groups = p.groups;
  return cfg;
}

void expect_same_response(const std::optional<UnitResponse>& ref,
                          const std::optional<UnitResponse>& fast,
                          unsigned cyc) {
  ASSERT_EQ(ref.has_value(), fast.has_value()) << "cycle " << cyc;
  if (!ref.has_value()) return;
  ASSERT_EQ(ref->seq, fast->seq) << "cycle " << cyc;
  ASSERT_EQ(ref->results.size(), fast->results.size()) << "cycle " << cyc;
  for (std::size_t i = 0; i < ref->results.size(); ++i) {
    const auto& r = ref->results[i];
    const auto& f = fast->results[i];
    ASSERT_EQ(r.key, f.key) << "cycle " << cyc << " key " << i;
    ASSERT_EQ(r.hit, f.hit) << "cycle " << cyc << " key " << i;
    ASSERT_EQ(r.global_address, f.global_address) << "cycle " << cyc << " key " << i;
    ASSERT_EQ(r.match_count, f.match_count) << "cycle " << cyc << " key " << i;
    ASSERT_EQ(r.group, f.group) << "cycle " << cyc << " key " << i;
    ASSERT_EQ(r.parity_error, f.parity_error) << "cycle " << cyc << " key " << i;
  }
}

void expect_same_ack(const std::optional<UnitUpdateAck>& ref,
                     const std::optional<UnitUpdateAck>& fast, unsigned cyc) {
  ASSERT_EQ(ref.has_value(), fast.has_value()) << "cycle " << cyc;
  if (!ref.has_value()) return;
  ASSERT_EQ(ref->seq, fast->seq) << "cycle " << cyc;
  ASSERT_EQ(ref->words_written, fast->words_written) << "cycle " << cyc;
  ASSERT_EQ(ref->unit_full, fast->unit_full) << "cycle " << cyc;
}

/// Compares the complete stored state - value, compare mask, and valid bit
/// of every entry of every block.
void expect_same_arrays(const CamUnit& ref, const CamUnit& fast, unsigned cyc) {
  const unsigned blocks = ref.config().unit_size;
  const unsigned cells = ref.config().block.block_size;
  for (unsigned b = 0; b < blocks; ++b) {
    for (unsigned i = 0; i < cells; ++i) {
      const std::size_t e = static_cast<std::size_t>(b) * cells + i;
      ASSERT_EQ(ref.entry(e).valid, fast.entry(e).valid)
          << "cycle " << cyc << " block " << b << " entry " << i;
      ASSERT_EQ(ref.entry(e).stored, fast.entry(e).stored)
          << "cycle " << cyc << " block " << b << " entry " << i;
      ASSERT_EQ(ref.entry(e).mask, fast.entry(e).mask)
          << "cycle " << cyc << " block " << b << " entry " << i;
      ASSERT_EQ(ref.entry(e).parity, fast.entry(e).parity)
          << "cycle " << cyc << " block " << b << " entry " << i;
    }
  }
  for (unsigned b = 0; b < blocks; ++b) {
    ASSERT_EQ(ref.block_fill(b), fast.block_fill(b)) << "cycle " << cyc << " block " << b;
  }
}

/// Smallest group capacity: addressed beats apply to every group's copy,
/// so only indexes every group holds are legal once groups are uneven.
unsigned min_group_capacity(const CamUnit& unit) {
  unsigned lo = ~0u;
  for (unsigned g = 0; g < unit.groups(); ++g) {
    lo = std::min(lo, unit.blocks_per_group(g) * unit.config().block.block_size);
  }
  return lo;
}

TEST_P(FastEquivalence, LockstepStreamsAreBitIdentical) {
  const auto p = GetParam();
  CamUnit ref(make_config(p, EvalMode::kReference));
  CamUnit fast(make_config(p, EvalMode::kFast));
  Rng rng(p.seed);

  const unsigned value_bits = std::min(p.data_width, 10u);  // dense key space
  unsigned capacity = min_group_capacity(ref);
  unsigned groups = p.groups;
  std::uint64_t seq = 1;
  unsigned responses = 0;
  unsigned parity_flags = 0;
  unsigned remaps = 0;

  for (unsigned cyc = 0; cyc < p.cycles; ++cyc) {
    const double dice = rng.next_double();
    if (dice < 0.004) {
      UnitRequest req;
      req.op = OpKind::kReset;
      req.seq = seq++;
      UnitRequest copy = req;
      ref.issue(std::move(req));
      fast.issue(std::move(copy));
    } else if (dice < 0.006 && ref.idle() && fast.idle()) {
      // Group reconfiguration is a control-plane op (requires idle); both
      // units flip to the same legal divisor and clear their contents.
      unsigned m = 1u << rng.next_below(4);
      while (p.unit_size % m != 0) m >>= 1;
      ref.configure_groups(m);
      fast.configure_groups(m);
      groups = m;
      capacity = min_group_capacity(ref);
    } else if (p.parity && dice < 0.012) {
      // Fault poke outside the clocked protocol: a random entry takes a
      // random state and a random (often wrong) parity bit.
      const std::size_t entry = rng.next_below(
          static_cast<std::uint64_t>(p.unit_size) * p.block_size);
      const Word stored = rng.next_bits(value_bits);
      const std::uint64_t mask =
          rng.next_bool(0.2) ? rng.next_bits(p.data_width) : low_bits(p.data_width);
      const bool valid = rng.next_bool();
      const bool parity = rng.next_bool();
      ref.poke_entry(entry, stored, mask, valid, parity);
      fast.poke_entry(entry, stored, mask, valid, parity);
    } else if (dice < 0.05) {
      UnitRequest req;
      req.op = OpKind::kInvalidate;
      req.address = static_cast<std::uint32_t>(rng.next_below(capacity));
      req.seq = seq++;
      UnitRequest copy = req;
      ref.issue(std::move(req));
      fast.issue(std::move(copy));
    } else if (dice < 0.10) {
      UnitRequest req;  // Addressed single-word write.
      req.op = OpKind::kUpdate;
      req.address = static_cast<std::uint32_t>(rng.next_below(capacity));
      req.words = {rng.next_bits(value_bits)};
      req.seq = seq++;
      UnitRequest copy = req;
      ref.issue(std::move(req));
      fast.issue(std::move(copy));
    } else if (dice < 0.45) {
      UnitRequest req;  // Appending multi-word update with kind-specific masks.
      req.op = OpKind::kUpdate;
      req.seq = seq++;
      const unsigned n = 1 + static_cast<unsigned>(rng.next_below(4));
      for (unsigned i = 0; i < n; ++i) {
        const Word v = rng.next_bits(value_bits);
        req.words.push_back(v);
        if (p.kind == CamKind::kTernary) {
          req.masks.push_back(tcam_mask(
              p.data_width, rng.next_bool(0.3) ? low_bits(4) : 0));
        } else if (p.kind == CamKind::kRange) {
          const unsigned span = static_cast<unsigned>(rng.next_below(4));
          req.masks.push_back(rmcam_mask(p.data_width, v & ~low_bits(span), span));
          req.words.back() = v & ~low_bits(span);
        }
      }
      UnitRequest copy = req;
      ref.issue(std::move(req));
      fast.issue(std::move(copy));
    } else if (dice < 0.95) {
      UnitRequest req;
      req.op = OpKind::kSearch;
      req.seq = seq++;
      const unsigned nk = 1 + static_cast<unsigned>(rng.next_below(groups));
      for (unsigned i = 0; i < nk; ++i) req.keys.push_back(rng.next_bits(value_bits));
      UnitRequest copy = req;
      if (p.fuse) {
        const UnitRequest* beat = &copy;
        if (fast.can_stage_fused(&beat, 1)) fast.stage_fused_searches(&beat, 1);
      }
      ref.issue(std::move(req));
      fast.issue(std::move(copy));
    }
    // else: idle cycle (lets activity gating kick in and out)

    test::step(ref);
    test::step(fast);

    expect_same_response(ref.response(), fast.response(), cyc);
    expect_same_ack(ref.update_ack(), fast.update_ack(), cyc);
    ASSERT_EQ(ref.idle(), fast.idle()) << "cycle " << cyc;
    ASSERT_EQ(ref.stored_per_group(), fast.stored_per_group()) << "cycle " << cyc;
    ASSERT_EQ(ref.active_block_count(), fast.active_block_count()) << "cycle " << cyc;
    ASSERT_EQ(ref.quiescent(), fast.quiescent()) << "cycle " << cyc;
    ASSERT_EQ(ref.write_quiescent(), fast.write_quiescent()) << "cycle " << cyc;
    if (ref.response().has_value()) {
      ++responses;
      for (const auto& r : ref.response()->results) parity_flags += r.parity_error;
    }
    if ((cyc & 1023u) == 1023u) expect_same_arrays(ref, fast, cyc);

    if (p.remap && cyc % 211 == 210) {
      // Drain both units in lockstep, then move one block to another group
      // (never emptying its old group). Both units clear their contents.
      for (unsigned d = 0; d < 16 && !(ref.idle() && fast.idle()); ++d) {
        test::step(ref);
        test::step(fast);
        expect_same_response(ref.response(), fast.response(), cyc);
        expect_same_ack(ref.update_ack(), fast.update_ack(), cyc);
        ASSERT_EQ(ref.active_block_count(), fast.active_block_count())
            << "cycle " << cyc << " drain " << d;
      }
      ASSERT_TRUE(ref.idle() && fast.idle()) << "cycle " << cyc;
      if (groups < 2) {
        ref.configure_groups(p.groups);
        fast.configure_groups(p.groups);
        groups = p.groups;
      }
      unsigned block = static_cast<unsigned>(rng.next_below(p.unit_size));
      while (ref.blocks_per_group(ref.routing().group_of(block)) < 2) {
        block = (block + 1) % p.unit_size;
      }
      const unsigned from = ref.routing().group_of(block);
      const unsigned to =
          (from + 1 + static_cast<unsigned>(rng.next_below(groups - 1))) % groups;
      ref.remap_block(block, to);
      fast.remap_block(block, to);
      capacity = min_group_capacity(ref);
      ++remaps;
    }
  }
  expect_same_arrays(ref, fast, p.cycles);
  EXPECT_GT(responses, p.cycles / 4) << "stream exercised too few searches";
  if (p.parity) {
    EXPECT_GT(parity_flags, 0u) << "no poke ever tripped parity";
  }
  if (p.remap) {
    EXPECT_GT(remaps, 10u) << "too few routing-table remaps";
  }
}

// >= 15k lockstep cycles PER ENCODING SCHEME over all three mask modes,
// both pipeline depths (output buffer off/on), and - through the registry -
// every specialized kernel family this host can run (narrow-width and
// full-width, mask-free and masked, depth-matched and ragged, with their
// fused sweep→encode entry points) and force_generic_kernel, which runs
// the generic kernels' fused entry points end to end.
// Constant-initialised, so the struct padding is zero: ctest names each case
// after the byte dump of its parameter, and stack garbage in the padding
// would give the cases new names on every build.
constexpr EquivParams kConfigs[] = {
    EquivParams{CamKind::kBinary, 32, 4, 32, 1, false,
                EncodingScheme::kPriorityIndex, 4000, 101},
    EquivParams{CamKind::kBinary, 16, 8, 64, 4, true,
                EncodingScheme::kPriorityIndex, 2500, 202},
    EquivParams{CamKind::kTernary, 16, 4, 32, 2, false,
                EncodingScheme::kMatchCount, 2500, 303},
    EquivParams{CamKind::kTernary, 48, 2, 32, 1, true,
                EncodingScheme::kPriorityIndex, 2000, 404},
    EquivParams{CamKind::kRange, 16, 4, 32, 1, false,
                EncodingScheme::kOneHot, 2500, 505},
    EquivParams{CamKind::kRange, 24, 4, 16, 2, true,
                EncodingScheme::kPriorityIndex, 2000, 606},
    // 48-bit binary: the full-width mask-free (eq64) kernel family.
    EquivParams{CamKind::kBinary, 48, 2, 64, 1, false,
                EncodingScheme::kPriorityIndex, 2000, 707},
    // Same geometries as the first and third configs with the generic
    // sweep forced: the fallback must be lockstep-identical too.
    EquivParams{CamKind::kBinary, 32, 4, 32, 1, false,
                EncodingScheme::kPriorityIndex, 2000, 808, true},
    EquivParams{CamKind::kTernary, 16, 4, 32, 2, false,
                EncodingScheme::kMatchCount, 2000, 909, true},
    // 64- and 256-deep geometries (the scalar depth templates on a
    // no-SIMD build) and the fused encode fast path, under every scheme.
    EquivParams{CamKind::kBinary, 32, 2, 256, 1, true,
                EncodingScheme::kOneHot, 4000, 1001},
    EquivParams{CamKind::kTernary, 16, 2, 256, 2, false,
                EncodingScheme::kOneHot, 4000, 1102},
    EquivParams{CamKind::kRange, 32, 4, 64, 2, true,
                EncodingScheme::kOneHot, 3500, 1203},
    EquivParams{CamKind::kBinary, 48, 2, 64, 1, false,
                EncodingScheme::kOneHot, 2500, 1304},
    EquivParams{CamKind::kBinary, 32, 2, 256, 1, false,
                EncodingScheme::kMatchCount, 4000, 1405},
    EquivParams{CamKind::kTernary, 32, 2, 64, 1, true,
                EncodingScheme::kMatchCount, 3500, 1506},
    EquivParams{CamKind::kRange, 16, 2, 256, 2, false,
                EncodingScheme::kMatchCount, 3500, 1607},
    EquivParams{CamKind::kBinary, 32, 2, 256, 1, false,
                EncodingScheme::kPriorityIndex, 2500, 1708},
    // Force-generic one-hot: the generic kernels' one-hot words must
    // stay bit-identical under mutations too.
    EquivParams{CamKind::kBinary, 32, 2, 256, 1, true,
                EncodingScheme::kOneHot, 2000, 1809, true},
    // The lookup_8k shape: 32 blocks x 256 cells in one group, output
    // buffer on (Table VIII's 8192x32 unit), fused staging driven.
    EquivParams{CamKind::kBinary, 32, 32, 256, 1, true,
                EncodingScheme::kPriorityIndex, 1500, 1910, false, false,
                false, true},
    // Parity-protected geometries under random fault pokes: the
    // parity flag must latch on the same cycle in both modes.
    EquivParams{CamKind::kTernary, 16, 4, 32, 2, false,
                EncodingScheme::kMatchCount, 3000, 2011, false, true},
    EquivParams{CamKind::kBinary, 32, 4, 64, 2, true,
                EncodingScheme::kPriorityIndex, 3000, 2112, false, true,
                false, true},
    // Routing-table remaps: groups become uneven and non-contiguous
    // (e.g. {0,1,3} and {2}), with 16-cell blocks so no group starts
    // on a 64-entry boundary, under every encoding scheme.
    EquivParams{CamKind::kBinary, 16, 4, 16, 2, true,
                EncodingScheme::kPriorityIndex, 4000, 2213, false, false,
                true, true},
    EquivParams{CamKind::kRange, 16, 8, 16, 4, false,
                EncodingScheme::kOneHot, 4000, 2314, false, true, true,
                true},
    EquivParams{CamKind::kTernary, 16, 6, 32, 3, true,
                EncodingScheme::kMatchCount, 4000, 2415, false, false,
                true, false},
    // Forced generic on the geometries the specialized kernels own: the
    // 48-bit binary (eq64_avx2) shape, a range CAM under parity pokes,
    // and the lookup_8k shape with fused staging driven.
    EquivParams{CamKind::kBinary, 48, 2, 64, 1, false,
                EncodingScheme::kPriorityIndex, 2000, 2516, true},
    EquivParams{CamKind::kRange, 16, 4, 32, 2, true,
                EncodingScheme::kOneHot, 3000, 2617, true, true},
    EquivParams{CamKind::kBinary, 32, 32, 256, 1, true,
                EncodingScheme::kPriorityIndex, 1500, 2718, true, false,
                false, true},
};

INSTANTIATE_TEST_SUITE_P(Configs, FastEquivalence,
                         ::testing::ValuesIn(kConfigs));

}  // namespace
}  // namespace dspcam::cam
