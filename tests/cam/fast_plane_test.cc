// FastPlane (src/cam/fast_plane.h): the packed kFast match plane a CamUnit
// runs per CAM group. The plane-level cases drive planes bound straight
// into a FastPlaneStore; the unit-level ones check which bench geometries
// get the exact-match index.
#include "src/cam/fast_plane.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/cam/encoder.h"
#include "src/cam/mask.h"
#include "src/cam/unit.h"
#include "src/common/bitvec.h"
#include "src/common/error.h"
#include "src/common/random.h"

namespace dspcam::cam {
namespace {

BlockConfig plane_cfg(CamKind kind, bool parity = false) {
  BlockConfig cfg;
  cfg.cell.kind = kind;
  cfg.cell.data_width = 16;
  cfg.block_size = 64;
  cfg.bus_width = 64;
  cfg.parity = parity;
  return cfg;
}

/// The golden answer: encode_match_lines over the per-entry DSP formula.
BlockResponse golden(const FastPlane& p, Word key, EncodingScheme scheme) {
  BitVec lines(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p.valid(i) && ((p.stored(i) ^ key) & ~p.mask(i) & kDspWordMask) == 0) lines.set(i);
  }
  return encode_match_lines(lines, scheme, QueryTag{});
}

TEST(FastPlane, PlanesSharingAStoreStayIndependent) {
  // Two planes of a unit-wide store: a 48-entry group padded to a word,
  // then a 16-entry group on the next word boundary.
  FastPlaneStore store;
  store.resize(2, /*parity_protected=*/false);
  FastPlane a, b;
  const BlockConfig cfg = plane_cfg(CamKind::kBinary);
  a.bind(cfg, EncodingScheme::kPriorityIndex, store, 0, 48);
  b.bind(cfg, EncodingScheme::kPriorityIndex, store, 1, 16);
  a.write(47, 0x1234, width_mask(16));
  b.write(0, 0x1234, width_mask(16));
  b.write(5, 0x0042, width_mask(16));

  EncodedMatch m;
  a.compare(0x1234, m, nullptr);
  EXPECT_TRUE(m.hit);
  EXPECT_EQ(m.first_match, 47u);
  a.compare(0x0042, m, nullptr);
  EXPECT_FALSE(m.hit) << "plane b's entry leaked into plane a";
  b.compare(0x0042, m, nullptr);
  EXPECT_TRUE(m.hit);
  EXPECT_EQ(m.first_match, 5u);

  b.clear();
  EXPECT_TRUE(a.valid(47)) << "clearing plane b touched plane a";
  EXPECT_FALSE(b.valid(0));
  EXPECT_THROW(b.bind(cfg, EncodingScheme::kPriorityIndex, store, 1, 65), SimError);
}

TEST(FastPlane, CompareMatchesGoldenEncoderUnderEveryScheme) {
  Rng rng(0xFA57);
  for (const EncodingScheme scheme : {EncodingScheme::kPriorityIndex, EncodingScheme::kOneHot}) {
    FastPlaneStore store;
    store.resize(3, false);
    FastPlane p;
    p.bind(plane_cfg(CamKind::kTernary), scheme, store, 0, 130);
    for (std::size_t i = 0; i < 130; ++i) {
      if (rng.next_bool(0.7)) {
        p.write(i, rng.next_bits(4), tcam_mask(16, rng.next_bool(0.3) ? 0x3 : 0));
      }
      if (rng.next_bool(0.1)) p.invalidate(i);
    }
    EXPECT_FALSE(p.mask_uniform());
    for (Word key = 0; key < 16; ++key) {
      const BlockResponse want = golden(p, key, scheme);
      EncodedMatch got;
      std::vector<std::uint64_t> bits(p.words(), 0);
      p.compare(key, got, bits.data());
      EXPECT_EQ(got.hit, want.hit) << "key " << key;
      EXPECT_EQ(got.first_match, want.first_match) << "key " << key;
      EXPECT_EQ(got.match_count, want.match_count) << "key " << key;
      if (scheme == EncodingScheme::kOneHot) {
        for (std::size_t w = 0; w < p.words(); ++w) {
          EXPECT_EQ(bits[w], want.raw.words()[w]) << "key " << key << " word " << w;
        }
      }
    }
  }
}

/// A plane of `n` entries deep enough for the exact-match index.
struct IndexedPlane {
  FastPlaneStore store;
  FastPlane plane;

  IndexedPlane(EncodingScheme scheme, std::size_t n = FastPlane::kIndexMinDepth,
               BlockConfig cfg = plane_cfg(CamKind::kBinary)) {
    store.resize((n + 63) / 64, cfg.parity);
    plane.bind(cfg, scheme, store, 0, n);
  }
};

/// compare() against the golden encoder for every key in [0, keys).
void expect_golden(FastPlane& p, EncodingScheme scheme, Word keys) {
  for (Word key = 0; key < keys; ++key) {
    const BlockResponse want = golden(p, key, scheme);
    EncodedMatch got;
    std::vector<std::uint64_t> bits(p.words(), ~std::uint64_t{0});
    p.compare(key, got, bits.data());
    ASSERT_EQ(got.hit, want.hit) << "key " << key;
    ASSERT_EQ(got.first_match, want.first_match) << "key " << key;
    ASSERT_EQ(got.match_count, want.match_count) << "key " << key;
    if (scheme == EncodingScheme::kOneHot) {
      for (std::size_t w = 0; w < p.words(); ++w) {
        ASSERT_EQ(bits[w], want.raw.words()[w]) << "key " << key << " word " << w;
      }
    }
  }
}

TEST(FastPlane, IndexServesOnlyDeepMaskFreePlanes) {
  EXPECT_TRUE(IndexedPlane(EncodingScheme::kPriorityIndex).plane.indexed());
  EXPECT_FALSE(IndexedPlane(EncodingScheme::kPriorityIndex, FastPlane::kIndexMinDepth / 2)
                   .plane.indexed())
      << "a shallow plane keeps the sweep";
  EXPECT_FALSE(IndexedPlane(EncodingScheme::kPriorityIndex, FastPlane::kIndexMinDepth,
                            plane_cfg(CamKind::kTernary))
                   .plane.indexed())
      << "only a binary plane is an exact-match map";
  EXPECT_FALSE(IndexedPlane(EncodingScheme::kPriorityIndex, FastPlane::kIndexMinDepth,
                            plane_cfg(CamKind::kRange))
                   .plane.indexed())
      << "only a binary plane is an exact-match map";
}

TEST(FastPlane, IndexMatchesGoldenEncoderOverDuplicatesUnderEveryScheme) {
  for (const EncodingScheme scheme : {EncodingScheme::kPriorityIndex, EncodingScheme::kOneHot}) {
    IndexedPlane ip(scheme, 2 * FastPlane::kIndexMinDepth + 3);
    FastPlane& p = ip.plane;
    ASSERT_TRUE(p.indexed());
    Rng rng(0x1DE7 + static_cast<unsigned>(scheme));
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (rng.next_bool(0.8)) p.write(i, rng.next_bits(4), width_mask(16));
    }
    expect_golden(p, scheme, 17);
    // Knock out the lowest copy of every value: each chain's head moves on.
    for (Word v = 0; v < 16; ++v) {
      const BlockResponse first = golden(p, v, EncodingScheme::kPriorityIndex);
      if (first.hit) p.invalidate(first.first_match);
    }
    EXPECT_TRUE(p.indexed());
    expect_golden(p, scheme, 17);
  }
}

TEST(FastPlane, IndexFollowsEveryMutation) {
  IndexedPlane ip(EncodingScheme::kPriorityIndex);
  FastPlane& p = ip.plane;
  const std::uint64_t plain = width_mask(16);
  EncodedMatch m;
  p.compare(7, m, nullptr);  // builds the index over an empty plane
  EXPECT_FALSE(m.hit);

  p.write(9, 7, plain);
  p.compare(7, m, nullptr);
  EXPECT_TRUE(m.hit) << "write";
  EXPECT_EQ(m.first_match, 9u);

  p.write(3, 7, plain);  // a lower duplicate takes priority
  p.compare(7, m, nullptr);
  EXPECT_EQ(m.first_match, 3u) << "write of a lower duplicate";

  p.invalidate(3);
  p.compare(7, m, nullptr);
  EXPECT_TRUE(m.hit);
  EXPECT_EQ(m.first_match, 9u) << "invalidate of the lowest duplicate";

  p.write(9, 8, plain);  // overwrite: 7 is gone, 8 appears
  p.compare(7, m, nullptr);
  EXPECT_FALSE(m.hit) << "overwrite left the old word indexed";
  p.compare(8, m, nullptr);
  EXPECT_TRUE(m.hit);

  p.poke(3, 8, plain, /*valid=*/true, p.parity(3));  // plain-mask poke
  EXPECT_TRUE(p.indexed()) << "a plain-mask poke keeps the index";
  p.compare(8, m, nullptr);
  EXPECT_EQ(m.first_match, 3u) << "poke";

  p.clear();
  p.compare(8, m, nullptr);
  EXPECT_FALSE(m.hit) << "clear";
  p.write(p.size() - 1, 8, plain);  // after clear(), the next compare rebuilds
  p.compare(8, m, nullptr);
  EXPECT_EQ(m.first_match, p.size() - 1) << "write after clear";
}

TEST(FastPlane, IndexStaysExactThroughRandomMutations) {
  // A 9-bit key space over 256 entries: hundreds of distinct words share
  // the 512-slot table, so probe runs are long and emptied chains keep
  // shifting their neighbours back; some words also repeat.
  for (const EncodingScheme scheme : {EncodingScheme::kPriorityIndex, EncodingScheme::kOneHot}) {
    IndexedPlane ip(scheme, 256);
    FastPlane& p = ip.plane;
    Rng rng(0x5EED + static_cast<unsigned>(scheme));
    EncodedMatch m;
    std::vector<std::uint64_t> bits(p.words());
    p.compare(0, m, bits.data());  // fresh from here on: every op updates in place
    for (unsigned op = 0; op < 4000; ++op) {
      const std::size_t i = rng.next_below(p.size());
      const double dice = rng.next_double();
      if (dice < 0.5) {
        p.write(i, rng.next_bits(9), width_mask(16));
      } else if (dice < 0.8) {
        p.invalidate(i);
      } else {
        p.poke(i, rng.next_bits(9), width_mask(16), rng.next_bool(), p.parity(i));
      }
      ASSERT_TRUE(p.indexed());
      const Word key = rng.next_bool() ? p.stored(rng.next_below(p.size())) : rng.next_bits(9);
      const BlockResponse want = golden(p, key, scheme);
      std::fill(bits.begin(), bits.end(), ~std::uint64_t{0});
      p.compare(key, m, bits.data());
      ASSERT_EQ(m.hit, want.hit) << "op " << op << " key " << key;
      ASSERT_EQ(m.first_match, want.first_match) << "op " << op << " key " << key;
      ASSERT_EQ(m.match_count, want.match_count) << "op " << op << " key " << key;
      if (scheme == EncodingScheme::kOneHot) {
        for (std::size_t w = 0; w < p.words(); ++w) {
          ASSERT_EQ(bits[w], want.raw.words()[w]) << "op " << op << " word " << w;
        }
      }
    }
    expect_golden(p, scheme, 512);
  }
}

TEST(FastPlane, MaskPokeDemotesTheIndexUntilClear) {
  BlockConfig cfg = plane_cfg(CamKind::kBinary, /*parity=*/true);
  IndexedPlane ip(EncodingScheme::kPriorityIndex, FastPlane::kIndexMinDepth, cfg);
  FastPlane& p = ip.plane;
  for (std::size_t i = 0; i < p.size(); ++i) p.write(i, i % 8, width_mask(16));
  ASSERT_TRUE(p.indexed());
  expect_golden(p, EncodingScheme::kPriorityIndex, 9);

  // A MASK-plane upset: the entry ignores bit 0, so it also matches 0x5^1.
  p.poke(5, p.stored(5), width_mask(16) | 1u, true, p.parity(5));
  EXPECT_FALSE(p.indexed());
  expect_golden(p, EncodingScheme::kPriorityIndex, 9);
  EncodedMatch m;
  p.compare(4, m, nullptr);
  EXPECT_EQ(m.first_match, 4u);

  // Sticky: restoring the entry's mask says nothing about the others.
  p.poke(5, p.stored(5), width_mask(16), true, p.parity(5));
  EXPECT_FALSE(p.indexed()) << "only clear() re-arms the index";
  expect_golden(p, EncodingScheme::kPriorityIndex, 9);

  p.clear();
  EXPECT_TRUE(p.indexed());
  p.write(2, 5, width_mask(16));
  expect_golden(p, EncodingScheme::kPriorityIndex, 9);
}

TEST(FastPlane, IndexKeysAreTruncatedToTheDataWidth) {
  IndexedPlane ip(EncodingScheme::kOneHot);  // 16-bit entries
  FastPlane& p = ip.plane;
  p.write(4, 0xABCD1234, width_mask(16));  // stored as 0x1234
  p.write(6, 0x1234, width_mask(16));
  EXPECT_EQ(p.stored(4), 0x1234u);
  const std::uint64_t both = (std::uint64_t{1} << 4) | (std::uint64_t{1} << 6);
  EncodedMatch m;
  std::vector<std::uint64_t> bits(p.words());
  p.compare(0xFFFF1234, m, bits.data());  // the key's high bits never reach a cell
  EXPECT_TRUE(m.hit);
  EXPECT_EQ(bits[0], both);
  p.compare(0x1234, m, bits.data());
  EXPECT_EQ(bits[0], both);
  p.compare(0xABCD, m, bits.data());
  EXPECT_FALSE(m.hit);
}

TEST(FastPlane, BindRefusesMatchCount) {
  // Its one owner binds priority or one-hot and counts from the one-hot
  // words, so a plane never encodes a match count itself.
  FastPlaneStore store;
  store.resize(1, false);
  FastPlane p;
  EXPECT_THROW(p.bind(plane_cfg(CamKind::kBinary), EncodingScheme::kMatchCount, store, 0, 64),
               ConfigError);
}

/// The 32-bit binary units of the end-to-end benchmark (bench/e2e): every
/// plane they search through is indexed.
UnitConfig bench_unit(unsigned blocks, unsigned cells) {
  UnitConfig cfg;
  cfg.block.cell.kind = CamKind::kBinary;
  cfg.block.cell.data_width = 32;
  cfg.block.block_size = cells;
  cfg.block.bus_width = 512;
  cfg.eval_mode = EvalMode::kFast;
  cfg.unit_size = blocks;
  cfg.bus_width = 512;
  return cfg;
}

TEST(FastPlane, BenchShapesThatGetTheIndex) {
  // lookup_8k: Table VIII's 8192 x 32 unit, one group - one 8192-entry plane.
  EXPECT_TRUE(CamUnit(bench_unit(32, 256)).group_indexed(0));
  // sharded_churn / sharded_open_25: 16 x 16-cell shards, one 256-entry plane.
  CamUnit shard(bench_unit(16, 16));
  EXPECT_TRUE(shard.group_indexed(0));
  // Regrouped to 4, the same shard's 64-entry planes fall back to the sweep.
  shard.configure_groups(4);
  for (unsigned g = 0; g < 4; ++g) EXPECT_FALSE(shard.group_indexed(g)) << g;
  // tc_paper: the triangle-counting accelerator's 2048 entries in 128-cell
  // blocks, regrouped per resident list to M in {1..16}: planes of 2048/M
  // entries, down to 128 - every one indexed.
  CamUnit tc(bench_unit(16, 128));
  for (const unsigned m : {1u, 2u, 4u, 8u, 16u}) {
    tc.configure_groups(m);
    for (unsigned g = 0; g < m; ++g) EXPECT_TRUE(tc.group_indexed(g)) << "M " << m;
  }
  // The reference path has no planes at all.
  UnitConfig ref = bench_unit(32, 256);
  ref.eval_mode = EvalMode::kReference;
  EXPECT_FALSE(CamUnit(ref).group_indexed(0));
}

TEST(FastPlane, PokesDeUniformTheMaskPlaneAndTripParity) {
  FastPlaneStore store;
  store.resize(1, /*parity_protected=*/true);
  FastPlane p;
  p.bind(plane_cfg(CamKind::kBinary, /*parity=*/true), EncodingScheme::kPriorityIndex,
         store, 0, 64);
  EXPECT_EQ(p.parity_errors(), 0u);
  p.write(9, 0x55, width_mask(16));
  EXPECT_EQ(p.parity_errors(), 0u);
  EXPECT_TRUE(p.mask_uniform());

  // A MASK-plane upset keeping the old parity bit: the mask plane is no
  // longer uniform, and exactly one parity error.
  p.poke(9, p.stored(9), width_mask(16) | 1u, true, p.parity(9));
  EXPECT_FALSE(p.mask_uniform());
  EXPECT_EQ(p.parity_errors(), 1u);
  EncodedMatch m;
  p.compare(0x54, m, nullptr);  // bit 0 no longer compared
  EXPECT_TRUE(m.hit);

  p.clear();
  EXPECT_TRUE(p.mask_uniform());
  EXPECT_EQ(p.parity_errors(), 0u);
}

}  // namespace
}  // namespace dspcam::cam
