// Lockstep equivalence fuzz: the vectorized fast evaluation path must be
// cycle- and bit-identical to the per-cell DSP48E2 reference model. Two
// CamUnits differing ONLY in EvalMode are driven with the same random beat
// stream (updates, searches, invalidates, addressed writes, resets, group
// reconfiguration, routing-table remaps and fault pokes on parity-protected
// geometries), and every cycle the complete observable surface is compared:
// search responses (all result fields, parity flag included), update acks,
// idle/quiescent state, the active-block occupancy - plus the full
// stored/mask/valid/parity arrays at checkpoints. Rows marked `sparse` issue
// short bursts separated by long idle gaps, so most edges have nothing due,
// and script one reset inside an idle stretch and one that lands on a
// search in flight. Rows marked `index` run
// planes deep enough for the exact-match index (DESIGN.md §11) and check it
// was live, demoted by mask pokes and re-armed by resets. Rows of shape
// 1xN_m1 are one-block units: a single indexed block under match-count,
// parity pokes and 48-bit one-hot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
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
  /// Parity-protected blocks, with random fault pokes corrupting entries.
  bool parity = false;
  /// Periodically drain both units and remap a random block to another
  /// group, so groups become uneven and non-contiguous.
  bool remap = false;
  /// Key-space bits (0: min(data_width, 10)). A narrow space stores each
  /// value at many addresses, and half the invalidates then aim at the
  /// first 2^key_bits addresses, where each value's lowest copy sits.
  unsigned key_bits = 0;
  /// Every fast plane starts indexed; the row checks it stayed live and,
  /// with parity pokes, was demoted and re-armed.
  bool index = false;
  /// Beats come in bursts of 1-6 started on 1% of idle cycles (about 3.5%
  /// of cycles carry one), plus the two scripted resets.
  bool sparse = false;
};

/// Readable name of one row, e.g.
/// "BCAM32_4x64_m1_priority_index_keys3_index_s3001": the ctest name suffix,
/// and what gtest prints for the parameter.
std::string row_name(const EquivParams& p) {
  std::string n = to_string(p.kind) + std::to_string(p.data_width) + "_";
  n += std::to_string(p.unit_size) + "x" + std::to_string(p.block_size) + "_m" +
       std::to_string(p.groups);
  std::string scheme = to_string(p.encoding);
  std::replace(scheme.begin(), scheme.end(), '-', '_');  // gtest names: [A-Za-z0-9_]
  n += "_" + scheme;
  if (p.output_buffer) n += "_buf";
  if (p.parity) n += "_parity";
  if (p.remap) n += "_remap";
  if (p.key_bits != 0) n += "_keys" + std::to_string(p.key_bits);
  if (p.index) n += "_index";
  if (p.sparse) n += "_sparse";
  return n + "_s" + std::to_string(p.seed);
}

std::string equiv_name(const ::testing::TestParamInfo<EquivParams>& info) {
  return row_name(info.param);
}

void PrintTo(const EquivParams& p, std::ostream* os) { *os << row_name(p); }

class FastEquivalence : public ::testing::TestWithParam<EquivParams> {};

UnitConfig make_config(const EquivParams& p, EvalMode mode) {
  UnitConfig cfg;
  cfg.block.cell.kind = p.kind;
  cfg.block.cell.data_width = p.data_width;
  cfg.block.block_size = p.block_size;
  cfg.block.bus_width = p.data_width * 4;
  cfg.block.output_buffer = p.output_buffer;
  cfg.block.encoding = p.encoding;
  cfg.block.parity = p.parity;
  cfg.eval_mode = mode;
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

/// Key-space width of a row: dense by default, narrower on request.
unsigned key_space_bits(const EquivParams& p) {
  return p.key_bits != 0 ? p.key_bits : std::min(p.data_width, 10u);
}

/// Invalidate target: uniform, or - with a narrowed key space - half the
/// time among the first 2^key_bits addresses, where each stored value's
/// lowest copy sits, so priority must fall through to the next duplicate.
std::uint32_t invalidate_address(Rng& rng, const EquivParams& p, unsigned capacity) {
  if (p.key_bits != 0 && rng.next_bool()) {
    return static_cast<std::uint32_t>(rng.next_below(std::min(capacity, 1u << p.key_bits)));
  }
  return static_cast<std::uint32_t>(rng.next_below(capacity));
}

/// Tracks whether the fast side answers from the exact-match index.
struct IndexTrace {
  bool live = false;
  unsigned live_cycles = 0;
  unsigned drops = 0;   ///< live -> swept (mask poke, shallow regroup).
  unsigned rearms = 0;  ///< swept -> live (reset, regroup).

  void observe(bool now) {
    live_cycles += now;
    drops += live && !now;
    rearms += !live && now;
    live = now;
  }
  void expect_exercised(const EquivParams& p) const {
    if (!p.index) return;
    EXPECT_GT(live_cycles, 0u) << "the index never answered";
    if (p.parity) {
      EXPECT_GT(drops, 0u) << "no mask poke ever demoted the index";
      EXPECT_GT(rearms, 0u) << "no reset ever re-armed the index";
    }
  }
};

TEST_P(FastEquivalence, LockstepStreamsAreBitIdentical) {
  const auto p = GetParam();
  CamUnit ref(make_config(p, EvalMode::kReference));
  CamUnit fast(make_config(p, EvalMode::kFast));
  Rng rng(p.seed);

  const unsigned value_bits = key_space_bits(p);
  unsigned capacity = min_group_capacity(ref);
  unsigned groups = p.groups;
  if (p.index) {
    for (unsigned g = 0; g < groups; ++g) ASSERT_TRUE(fast.group_indexed(g)) << "group " << g;
  }
  IndexTrace index;
  std::uint64_t seq = 1;
  unsigned responses = 0;
  unsigned parity_flags = 0;
  unsigned remaps = 0;
  // Sparse rows: the burst in progress, the idle stretch so far, and the
  // scripted resets (one inside an idle stretch, one the edge after a lone
  // search, which it must flush: no response for that search).
  unsigned burst_left = 0;
  unsigned idle_run = 0;
  bool idle_reset = false;
  std::uint64_t flushed_seq = 0;
  bool flush_pending = false;
  const auto issue_both = [&](UnitRequest req) {
    UnitRequest copy = req;
    ref.issue(std::move(req));
    fast.issue(std::move(copy));
  };

  for (unsigned cyc = 0; cyc < p.cycles; ++cyc) {
    double dice = rng.next_double();
    if (p.sparse) {
      UnitRequest req;
      req.seq = seq;
      if (flush_pending) {
        req.op = OpKind::kReset;
        flush_pending = false;
      } else if (!idle_reset && cyc >= p.cycles / 3 && idle_run >= 8) {
        req.op = OpKind::kReset;
        idle_reset = true;
      } else if (flushed_seq == 0 && cyc >= 2 * p.cycles / 3 && idle_run >= 8) {
        req.op = OpKind::kSearch;
        req.keys = {0};
        flushed_seq = seq;
        flush_pending = true;
      } else if (burst_left == 0 && rng.next_bool(0.01)) {
        burst_left = 1 + static_cast<unsigned>(rng.next_below(6));
      }
      if (req.op != OpKind::kIdle) {
        ++seq;
        issue_both(std::move(req));
        dice = 1.0;  // no random beat this cycle
      } else if (burst_left == 0) {
        dice = 1.0;  // idle gap
      } else {
        --burst_left;
        dice *= 0.95;  // a beat, never the idle branch
      }
    }
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
      req.address = invalidate_address(rng, p, capacity);
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
      ref.issue(std::move(req));
      fast.issue(std::move(copy));
    }
    // else: idle cycle (lets activity gating kick in and out)

    test::step(ref);
    test::step(fast);
    index.observe(fast.group_indexed(0));
    idle_run = fast.idle() ? idle_run + 1 : 0;
    if (flushed_seq != 0 && fast.response().has_value()) {
      ASSERT_NE(fast.response()->seq, flushed_seq) << "cycle " << cyc << ": reset missed it";
    }

    expect_same_response(ref.response(), fast.response(), cyc);
    expect_same_ack(ref.update_ack(), fast.update_ack(), cyc);
    ASSERT_EQ(ref.idle(), fast.idle()) << "cycle " << cyc;
    ASSERT_EQ(ref.stored_per_group(), fast.stored_per_group()) << "cycle " << cyc;
    ASSERT_EQ(ref.active_block_count(), fast.active_block_count()) << "cycle " << cyc;
    ASSERT_EQ(ref.quiescent(), fast.quiescent()) << "cycle " << cyc;
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
  EXPECT_GT(responses, p.sparse ? p.cycles / 100 : p.cycles / 4)
      << "stream exercised too few searches";
  if (p.sparse) {
    EXPECT_TRUE(idle_reset) << "no idle stretch took the scripted reset";
    EXPECT_NE(flushed_seq, 0u) << "the mid-search reset was never scripted";
  }
  if (p.parity) {
    EXPECT_GT(parity_flags, 0u) << "no poke ever tripped parity";
  }
  if (p.remap) {
    EXPECT_GT(remaps, 10u) << "too few routing-table remaps";
  }
  index.expect_exercised(p);
}

// >= 15k lockstep cycles PER ENCODING SCHEME over all three mask modes,
// both pipeline depths (output buffer off/on), and the registry's sweep
// for this host's ISA through its fused sweep→encode entry point, at
// narrow and full widths and at 64-aligned and ragged plane depths. Binary
// planes of at least FastPlane::kIndexMinDepth entries answer from the
// exact-match index; the sweep still serves the shallower planes
// regrouping makes.
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
    // 48-bit binary: full-width stored words.
    EquivParams{CamKind::kBinary, 48, 2, 64, 1, false,
                EncodingScheme::kPriorityIndex, 2000, 707},
    // The first and third configs' geometries on other streams.
    EquivParams{CamKind::kBinary, 32, 4, 32, 1, false,
                EncodingScheme::kPriorityIndex, 2000, 808},
    EquivParams{CamKind::kTernary, 16, 4, 32, 2, false,
                EncodingScheme::kMatchCount, 2000, 909},
    // 64- and 256-deep geometries and the fused encode fast path, under
    // every scheme.
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
    // Buffered one-hot on a 512-entry plane: one-hot words must stay
    // bit-identical under mutations too.
    EquivParams{CamKind::kBinary, 32, 2, 256, 1, true,
                EncodingScheme::kOneHot, 2000, 1809},
    // The lookup_8k shape: 32 blocks x 256 cells in one group, output
    // buffer on (Table VIII's 8192x32 unit).
    EquivParams{CamKind::kBinary, 32, 32, 256, 1, true,
                EncodingScheme::kPriorityIndex, 1500, 1910},
    // Parity-protected geometries under random fault pokes: the
    // parity flag must latch on the same cycle in both modes.
    EquivParams{CamKind::kTernary, 16, 4, 32, 2, false,
                EncodingScheme::kMatchCount, 3000, 2011, true},
    EquivParams{CamKind::kBinary, 32, 4, 64, 2, true,
                EncodingScheme::kPriorityIndex, 3000, 2112, true},
    // Routing-table remaps: groups become uneven and non-contiguous
    // (e.g. {0,1,3} and {2}), with 16-cell blocks so no group starts
    // on a 64-entry boundary, under every encoding scheme.
    EquivParams{CamKind::kBinary, 16, 4, 16, 2, true,
                EncodingScheme::kPriorityIndex, 4000, 2213, false, true},
    EquivParams{CamKind::kRange, 16, 8, 16, 4, false,
                EncodingScheme::kOneHot, 4000, 2314, true, true},
    EquivParams{CamKind::kTernary, 16, 6, 32, 3, true,
                EncodingScheme::kMatchCount, 4000, 2415, false, true},
    // More streams on the 48-bit binary shape, a range CAM under parity
    // pokes, and the lookup_8k shape.
    EquivParams{CamKind::kBinary, 48, 2, 64, 1, false,
                EncodingScheme::kPriorityIndex, 2000, 2516},
    EquivParams{CamKind::kRange, 16, 4, 32, 2, true,
                EncodingScheme::kOneHot, 3000, 2617, true},
    EquivParams{CamKind::kBinary, 32, 32, 256, 1, true,
                EncodingScheme::kPriorityIndex, 1500, 2718},
    // Exact-match index rows (DESIGN.md §11): planes of >= 256 entries
    // over a 3-5 bit key space, so every value sits at several addresses
    // and half the invalidates strike a value's lowest copy.
    EquivParams{.kind = CamKind::kBinary, .data_width = 32, .unit_size = 4,
                .block_size = 64, .groups = 1, .output_buffer = false,
                .encoding = EncodingScheme::kPriorityIndex, .cycles = 3000,
                .seed = 3001, .key_bits = 3, .index = true},
    // Two indexed groups; regrouping to 4/8 groups drops below the depth.
    EquivParams{.kind = CamKind::kBinary, .data_width = 16, .unit_size = 8,
                .block_size = 64, .groups = 2, .output_buffer = true,
                .encoding = EncodingScheme::kPriorityIndex, .cycles = 3000,
                .seed = 3102, .key_bits = 4, .index = true},
    // Parity pokes: mask pokes demote the plane to the sweep, resets
    // re-arm the index, and the parity flag rides through both.
    EquivParams{.kind = CamKind::kBinary, .data_width = 32, .unit_size = 4,
                .block_size = 64, .groups = 1, .output_buffer = true,
                .encoding = EncodingScheme::kPriorityIndex, .cycles = 4000,
                .seed = 3203, .parity = true, .key_bits = 4, .index = true},
    // One-hot at unit level: one bit per chain entry.
    EquivParams{.kind = CamKind::kBinary, .data_width = 32, .unit_size = 2,
                .block_size = 256, .groups = 1, .output_buffer = false,
                .encoding = EncodingScheme::kOneHot, .cycles = 3000,
                .seed = 3304, .key_bits = 4, .index = true},
    // One-block units: match-count is the chain length, plus a parity
    // block and a 48-bit one-hot block.
    EquivParams{.kind = CamKind::kBinary, .data_width = 32, .unit_size = 1,
                .block_size = 256, .groups = 1, .output_buffer = false,
                .encoding = EncodingScheme::kMatchCount, .cycles = 3000,
                .seed = 3405, .key_bits = 3, .index = true},
    EquivParams{.kind = CamKind::kBinary, .data_width = 32, .unit_size = 1,
                .block_size = 512, .groups = 1, .output_buffer = true,
                .encoding = EncodingScheme::kPriorityIndex, .cycles = 3000,
                .seed = 3506, .parity = true, .key_bits = 4, .index = true},
    EquivParams{.kind = CamKind::kBinary, .data_width = 48, .unit_size = 1,
                .block_size = 256, .groups = 1, .output_buffer = false,
                .encoding = EncodingScheme::kOneHot, .cycles = 2500,
                .seed = 3607, .key_bits = 5, .index = true},
    // Sparse bursts between long idle gaps: multi-key searches over four
    // groups (the active-block prefix), a buffered indexed plane, parity
    // pokes, and routing-table remaps.
    EquivParams{.kind = CamKind::kBinary, .data_width = 32, .unit_size = 8,
                .block_size = 32, .groups = 4, .output_buffer = true,
                .encoding = EncodingScheme::kPriorityIndex, .cycles = 12000,
                .seed = 4001, .sparse = true},
    EquivParams{.kind = CamKind::kBinary, .data_width = 32, .unit_size = 4,
                .block_size = 64, .groups = 1, .output_buffer = false,
                .encoding = EncodingScheme::kPriorityIndex, .cycles = 12000,
                .seed = 4102, .key_bits = 3, .index = true, .sparse = true},
    EquivParams{.kind = CamKind::kTernary, .data_width = 16, .unit_size = 4,
                .block_size = 32, .groups = 2, .output_buffer = false,
                .encoding = EncodingScheme::kMatchCount, .cycles = 12000,
                .seed = 4203, .parity = true, .sparse = true},
    EquivParams{.kind = CamKind::kRange, .data_width = 16, .unit_size = 8,
                .block_size = 16, .groups = 4, .output_buffer = true,
                .encoding = EncodingScheme::kOneHot, .cycles = 12000,
                .seed = 4304, .remap = true, .sparse = true},
};

INSTANTIATE_TEST_SUITE_P(Configs, FastEquivalence, ::testing::ValuesIn(kConfigs),
                         equiv_name);

}  // namespace
}  // namespace dspcam::cam
