#include "src/apps/lpm.h"

#include <gtest/gtest.h>

#include <map>

#include "src/common/bitops.h"
#include "src/common/error.h"
#include "src/common/random.h"
#include "src/system/cam_system.h"
#include "src/system/sharded_engine.h"

namespace dspcam::apps {
namespace {

std::uint32_t ip(unsigned a, unsigned b, unsigned c, unsigned d) {
  return (a << 24) | (b << 16) | (c << 8) | d;
}

LpmTable::Config small_config() {
  LpmTable::Config cfg;
  cfg.slots_per_length = 4;  // 132 slots
  cfg.cam.unit.block.cell.kind = cam::CamKind::kTernary;
  cfg.cam.unit.block.cell.data_width = 32;
  cfg.cam.unit.block.block_size = 64;
  cfg.cam.unit.block.bus_width = 512;
  cfg.cam.unit.unit_size = 4;  // 256 entries
  cfg.cam.unit.bus_width = 512;
  return cfg;
}

TEST(LpmTable, LongestPrefixWins) {
  LpmTable lpm(small_config());
  ASSERT_TRUE(lpm.add_route(ip(10, 0, 0, 0), 8, 100));
  ASSERT_TRUE(lpm.add_route(ip(10, 1, 0, 0), 16, 200));
  ASSERT_TRUE(lpm.add_route(ip(10, 1, 2, 0), 24, 300));
  ASSERT_TRUE(lpm.add_route(ip(10, 1, 2, 3), 32, 400));

  EXPECT_EQ(lpm.lookup(ip(10, 1, 2, 3)), 400u);   // /32 beats everything
  EXPECT_EQ(lpm.lookup(ip(10, 1, 2, 99)), 300u);  // /24
  EXPECT_EQ(lpm.lookup(ip(10, 1, 99, 1)), 200u);  // /16
  EXPECT_EQ(lpm.lookup(ip(10, 99, 1, 1)), 100u);  // /8
  EXPECT_FALSE(lpm.lookup(ip(11, 0, 0, 1)).has_value());
}

TEST(LpmTable, DefaultRouteCatchesAll) {
  LpmTable lpm(small_config());
  ASSERT_TRUE(lpm.add_route(0, 0, 7));  // 0.0.0.0/0
  EXPECT_EQ(lpm.lookup(ip(8, 8, 8, 8)), 7u);
  ASSERT_TRUE(lpm.add_route(ip(8, 8, 8, 0), 24, 9));
  EXPECT_EQ(lpm.lookup(ip(8, 8, 8, 8)), 9u) << "more specific route wins";
  EXPECT_EQ(lpm.lookup(ip(1, 1, 1, 1)), 7u);
}

TEST(LpmTable, RemoveFallsBackToShorterPrefix) {
  LpmTable lpm(small_config());
  lpm.add_route(ip(10, 0, 0, 0), 8, 1);
  lpm.add_route(ip(10, 1, 0, 0), 16, 2);
  EXPECT_EQ(lpm.lookup(ip(10, 1, 5, 5)), 2u);
  ASSERT_TRUE(lpm.remove_route(ip(10, 1, 0, 0), 16));
  EXPECT_EQ(lpm.lookup(ip(10, 1, 5, 5)), 1u);
  EXPECT_FALSE(lpm.remove_route(ip(10, 1, 0, 0), 16)) << "already removed";
}

TEST(LpmTable, DuplicateAndCapacity) {
  LpmTable lpm(small_config());
  EXPECT_TRUE(lpm.add_route(ip(1, 0, 0, 0), 8, 1));
  EXPECT_FALSE(lpm.add_route(ip(1, 0, 0, 0), 8, 2)) << "duplicate refused";
  // Region /8 holds 4 slots.
  EXPECT_TRUE(lpm.add_route(ip(2, 0, 0, 0), 8, 2));
  EXPECT_TRUE(lpm.add_route(ip(3, 0, 0, 0), 8, 3));
  EXPECT_TRUE(lpm.add_route(ip(4, 0, 0, 0), 8, 4));
  EXPECT_FALSE(lpm.add_route(ip(5, 0, 0, 0), 8, 5)) << "region full";
  EXPECT_EQ(lpm.route_count(), 4u);
}

TEST(LpmTable, PrefixCanonicalisation) {
  LpmTable lpm(small_config());
  // Host bits in the supplied prefix are ignored.
  ASSERT_TRUE(lpm.add_route(ip(10, 1, 2, 99), 24, 5));
  EXPECT_EQ(lpm.lookup(ip(10, 1, 2, 1)), 5u);
  EXPECT_TRUE(lpm.remove_route(ip(10, 1, 2, 200), 24)) << "same canonical route";
}

TEST(LpmTable, Validation) {
  LpmTable lpm(small_config());
  EXPECT_THROW(lpm.add_route(0, 33, 1), ConfigError);
  auto bad = small_config();
  bad.cam.unit.block.cell.kind = cam::CamKind::kBinary;
  EXPECT_THROW(LpmTable{bad}, ConfigError);
  auto tiny = small_config();
  tiny.slots_per_length = 100;  // 3300 > 256 entries
  EXPECT_THROW(LpmTable{tiny}, ConfigError);
}

TEST(LpmTable, RandomizedAgainstSoftwareReference) {
  LpmTable lpm(small_config());
  // Software model: map (len, prefix) -> next_hop; lookup scans lengths
  // longest-first.
  std::map<std::pair<unsigned, std::uint32_t>, std::uint32_t> model;
  Rng rng(909);
  auto model_lookup = [&](std::uint32_t addr) -> std::optional<std::uint32_t> {
    for (int len = 32; len >= 0; --len) {
      const std::uint32_t canon =
          len == 0 ? 0 : addr & static_cast<std::uint32_t>(~low_bits(32 - len));
      const auto it = model.find({static_cast<unsigned>(len), canon});
      if (it != model.end()) return it->second;
    }
    return std::nullopt;
  };

  const unsigned lens[] = {8, 12, 16, 20, 24, 28, 32};
  for (int round = 0; round < 150; ++round) {
    const double dice = rng.next_double();
    const unsigned len = lens[rng.next_below(std::size(lens))];
    // Small pool of prefixes so lookups hit often.
    const std::uint32_t prefix =
        (static_cast<std::uint32_t>(rng.next_below(4)) << 24) |
        (static_cast<std::uint32_t>(rng.next_below(4)) << 16) |
        (static_cast<std::uint32_t>(rng.next_below(4)) << 8);
    const std::uint32_t canon =
        len == 0 ? 0 : prefix & static_cast<std::uint32_t>(~low_bits(32 - len));
    if (dice < 0.35) {
      const auto hop = static_cast<std::uint32_t>(round);
      const bool added = lpm.add_route(prefix, len, hop);
      if (added) {
        model[{len, canon}] = hop;
      } else {
        EXPECT_TRUE(model.contains({len, canon}) ||
                    lpm.capacity_per_length() == 4);  // duplicate or region full
        if (!model.contains({len, canon})) continue;
      }
    } else if (dice < 0.5 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.next_below(model.size()));
      EXPECT_TRUE(lpm.remove_route(it->first.second, it->first.first));
      model.erase(it);
    } else {
      const std::uint32_t addr =
          (static_cast<std::uint32_t>(rng.next_below(4)) << 24) |
          (static_cast<std::uint32_t>(rng.next_below(4)) << 16) |
          (static_cast<std::uint32_t>(rng.next_below(4)) << 8) |
          static_cast<std::uint32_t>(rng.next_below(4));
      const auto got = lpm.lookup(addr);
      const auto want = model_lookup(addr);
      ASSERT_EQ(got.has_value(), want.has_value()) << "round " << round;
      if (want.has_value()) {
        ASSERT_EQ(*got, *want) << "round " << round;
      }
    }
  }
}

// The LPM application is backend-agnostic: the same table logic runs over a
// borrowed CamBackend, here a ternary CamSystem the caller owns.
TEST(LpmTable, RunsOnBorrowedBackend) {
  system::CamSystem backend(small_config().cam);
  LpmTable lpm(backend, /*slots_per_length=*/4);

  ASSERT_TRUE(lpm.add_route(ip(10, 0, 0, 0), 8, 100));
  ASSERT_TRUE(lpm.add_route(ip(10, 1, 0, 0), 16, 200));
  ASSERT_TRUE(lpm.add_route(ip(10, 1, 2, 0), 24, 300));
  EXPECT_EQ(lpm.lookup(ip(10, 1, 2, 3)), 300u);
  EXPECT_EQ(lpm.lookup(ip(10, 1, 9, 9)), 200u);
  EXPECT_EQ(lpm.lookup(ip(10, 9, 9, 9)), 100u);
  EXPECT_FALSE(lpm.lookup(ip(11, 0, 0, 0)).has_value());

  ASSERT_TRUE(lpm.remove_route(ip(10, 1, 2, 0), 24));
  EXPECT_EQ(lpm.lookup(ip(10, 1, 2, 3)), 200u) << "falls back to /16";

  auto binary_cfg = small_config().cam;
  binary_cfg.unit.block.cell.kind = cam::CamKind::kBinary;
  system::CamSystem binary(binary_cfg);
  EXPECT_THROW(LpmTable(binary, 4), ConfigError) << "binary backend refused";
}

// 192.168.{0..3}.0/24 plus 192.0.0.0/8, 8 slots per length, then 60 lookups:
// the /24s' next hops, the /8's, and misses.
std::vector<std::optional<std::uint32_t>> lookups_of_five_routes(system::CamBackend& backend) {
  LpmTable lpm(backend, /*slots_per_length=*/8);
  for (unsigned x = 0; x < 4; ++x) EXPECT_TRUE(lpm.add_route(ip(192, 168, x, 0), 24, 1 + x));
  EXPECT_TRUE(lpm.add_route(ip(192, 0, 0, 0), 8, 99));
  std::vector<std::optional<std::uint32_t>> out;
  for (unsigned i = 0; i < 60; ++i) out.push_back(lpm.lookup(ip(191 + i % 3, 168, i % 6, 7 * i)));
  return out;
}

// A routing table runs on one shard: over a 1-shard engine it answers as
// over a CamSystem.
TEST(LpmTable, OneShardEngineLooksUpAsCamSystem) {
  auto cam = small_config().cam;
  cam.unit.unit_size = 8;  // 512 entries for 33 x 8 slots
  system::CamSystem bare(cam);
  const auto want = lookups_of_five_routes(bare);
  for (unsigned i = 0; i < want.size(); ++i) {
    const unsigned x = i % 6;
    const std::optional<std::uint32_t> hop =
        i % 3 != 1 ? std::nullopt : std::optional<std::uint32_t>(x < 4 ? 1 + x : 99);
    EXPECT_EQ(want[i], hop) << "lookup " << i;
  }
  system::ShardedCamEngine engine(system::ShardedCamEngine::Config{}, cam);
  EXPECT_EQ(lookups_of_five_routes(engine), want);
}

// A prefix's entry covers keys of many shards but would sit on one, so an
// engine of more shards refuses the ternary cells the table needs.
TEST(LpmTable, MultiShardEngineIsRefused) {
  for (const auto partition : {system::ShardedCamEngine::Partition::kHash,
                               system::ShardedCamEngine::Partition::kRange}) {
    system::ShardedCamEngine::Config cfg;
    cfg.shards = 4;
    cfg.partition = partition;
    EXPECT_THROW(system::ShardedCamEngine(cfg, small_config().cam), ConfigError);
  }
}

}  // namespace
}  // namespace dspcam::apps

#include "src/apps/semijoin.h"

#include <unordered_set>

namespace dspcam::apps {
namespace {

TEST(SemiJoin, ExactMatchCounts) {
  const std::vector<std::uint32_t> build = {1, 5, 9, 13};
  const std::vector<std::uint32_t> probe = {1, 2, 5, 5, 9, 10, 13, 14};
  const CamSemiJoin cam;
  const HashSemiJoin hash;
  EXPECT_EQ(cam.run(build, probe).matches, 5u);
  EXPECT_EQ(hash.run(build, probe).matches, 5u);
}

TEST(SemiJoin, EnginesAgreeOnRandomData) {
  Rng rng(99);
  std::vector<std::uint32_t> build(500);
  std::vector<std::uint32_t> probe(5000);
  for (auto& v : build) v = static_cast<std::uint32_t>(rng.next_bits(10));
  for (auto& v : probe) v = static_cast<std::uint32_t>(rng.next_bits(10));
  const auto rc = CamSemiJoin().run(build, probe);
  const auto rh = HashSemiJoin().run(build, probe);
  EXPECT_EQ(rc.matches, rh.matches);
  EXPECT_GT(rc.matches, 0u);
  EXPECT_GT(rh.cycles / rc.cycles, 2u) << "in-CAM build side probes faster";
}

TEST(SemiJoin, ExecutedOnCycleBackendsMatchesReference) {
  Rng rng(31);
  std::vector<std::uint32_t> build(100);
  std::vector<std::uint32_t> probe(400);
  for (auto& v : build) v = static_cast<std::uint32_t>(rng.next_bits(9));
  for (auto& v : probe) v = static_cast<std::uint32_t>(rng.next_bits(9));
  std::unordered_set<std::uint32_t> set(build.begin(), build.end());
  std::uint64_t expected = 0;
  for (const auto v : probe) {
    if (set.contains(v)) ++expected;
  }

  // DSP CamSystem backend (build fits one partition).
  system::CamSystem::Config cam_cfg;
  cam_cfg.unit.block.cell.data_width = 32;
  cam_cfg.unit.block.block_size = 32;
  cam_cfg.unit.block.bus_width = 512;
  cam_cfg.unit.unit_size = 4;
  cam_cfg.unit.bus_width = 512;
  system::CamSystem dsp(cam_cfg);
  const auto on_dsp = run_semijoin_on_backend(dsp, build, probe);
  EXPECT_EQ(on_dsp.matches, expected);
  EXPECT_GT(on_dsp.cycles, 0u);

  // A one-block CamSystem, sized below the build set: partition passes.
  system::CamSystem::Config small_cfg = cam_cfg;
  small_cfg.unit.unit_size = 1;
  system::CamSystem small(small_cfg);
  ASSERT_LT(small.capacity(), build.size());
  const auto on_small = run_semijoin_on_backend(small, build, probe);
  EXPECT_EQ(on_small.matches, expected);
  EXPECT_GT(on_small.cycles, on_dsp.cycles)
      << "each partition pass replays the probe column";
}

TEST(SemiJoin, PartitionPassesScaleCost) {
  Rng rng(7);
  std::vector<std::uint32_t> probe(20000);
  for (auto& v : probe) v = static_cast<std::uint32_t>(rng.next_bits(16));
  std::vector<std::uint32_t> small(1000);
  std::vector<std::uint32_t> big(8000);  // 4 passes of the 2K CAM
  for (auto& v : small) v = static_cast<std::uint32_t>(rng.next_bits(16));
  for (auto& v : big) v = static_cast<std::uint32_t>(rng.next_bits(16));
  const CamSemiJoin cam;
  const auto rs = cam.run(small, probe);
  const auto rb = cam.run(big, probe);
  EXPECT_GT(rb.cycles, 3 * rs.cycles) << "each pass replays the probe column";
}

}  // namespace
}  // namespace dspcam::apps
