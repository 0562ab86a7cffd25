// ShardSnapshot format tests (seal/verify/tamper rejection, target
// round-trips) and CompositeBoundary: peek/poke round-trips across the
// shard-window seams of ShardedCamEngine's composed fault target, for
// S in {1, 3, 8} under both evaluation modes.
#include "src/fault/snapshot.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/common/error.h"
#include "src/system/driver.h"
#include "src/system/sharded_engine.h"

namespace dspcam::fault {
namespace {

using system::CamDriver;
using system::CamSystem;
using system::ShardedCamEngine;

CamSystem::Config shard_config(cam::EvalMode mode = cam::EvalMode::kFast,
                               bool parity = true) {
  CamSystem::Config cfg;
  cfg.unit.block.cell.data_width = 32;
  cfg.unit.block.block_size = 32;
  cfg.unit.block.bus_width = 512;
  cfg.unit.block.parity = parity;
  cfg.unit.eval_mode = mode;
  cfg.unit.unit_size = 4;
  cfg.unit.bus_width = 512;
  return cfg;
}

ShardedCamEngine::Config engine_config(unsigned shards) {
  ShardedCamEngine::Config cfg;
  cfg.shards = shards;
  return cfg;
}

void fill(ShardedCamEngine& engine, unsigned n) {
  CamDriver drv(engine);
  std::vector<cam::Word> words;
  for (unsigned i = 0; i < n; ++i) words.push_back(i * 3 + 1);
  drv.store(words);
  for (unsigned i = 0; i < 100000 && !engine.idle(); ++i) engine.step();
}

// --- ShardSnapshot seal/verify. ---

TEST(ShardSnapshot, SealThenVerifyRoundTrips) {
  ShardedCamEngine engine(engine_config(2), shard_config());
  fill(engine, 32);
  ShardSnapshot snap = engine.snapshot_shard(0);
  EXPECT_EQ(snap.version, ShardSnapshot::kVersion);
  EXPECT_EQ(snap.entries.size(), snap.entry_count);
  EXPECT_EQ(snap.checksum, snap.compute_checksum());
  EXPECT_NO_THROW(snap.verify());
}

TEST(ShardSnapshot, TamperedEntryFailsChecksum) {
  ShardedCamEngine engine(engine_config(2), shard_config());
  fill(engine, 32);
  ShardSnapshot snap = engine.snapshot_shard(0);
  snap.entries[0].stored ^= 1;  // one flipped bit anywhere must be caught
  EXPECT_THROW(snap.verify(), SimError);
  snap.entries[0].stored ^= 1;
  EXPECT_NO_THROW(snap.verify());
  snap.cursors[0] ^= 1;  // the cursor plane is covered too
  EXPECT_THROW(snap.verify(), SimError);
}

TEST(ShardSnapshot, UnsupportedVersionAndCountMismatchRejected) {
  ShardedCamEngine engine(engine_config(2), shard_config());
  fill(engine, 32);
  ShardSnapshot snap = engine.snapshot_shard(0);
  snap.version = ShardSnapshot::kVersion + 1;
  snap.seal();  // even a well-checksummed future version is refused
  snap.version = ShardSnapshot::kVersion + 1;
  EXPECT_THROW(snap.verify(), SimError);

  ShardSnapshot truncated = engine.snapshot_shard(0);
  truncated.entries.pop_back();
  EXPECT_THROW(truncated.verify(), SimError);
}

TEST(ShardSnapshot, RestoreTargetRefusesGeometryMismatch) {
  ShardedCamEngine engine(engine_config(2), shard_config());
  fill(engine, 32);
  ShardSnapshot snap = engine.snapshot_shard(0);
  snap.entry_bits = 16;
  snap.seal();
  const FaultTarget& target = *engine.shard(0).fault_target();
  EXPECT_THROW(check_restorable(target, snap), SimError);
  EXPECT_THROW(engine.restore_shard(0, snap), SimError);
}

TEST(ShardSnapshot, TargetRoundTripRestoresEveryEntry) {
  ShardedCamEngine engine(engine_config(2), shard_config());
  fill(engine, 32);
  FaultTarget& target = *engine.shard(0).fault_target();
  const ShardSnapshot snap = engine.snapshot_shard(0);

  // Scramble the live storage, then restore and compare entry-for-entry.
  for (std::size_t i = 0; i < target.entry_count(); i += 7) {
    EntryState s = target.peek(i);
    s.stored ^= 0xdeadbeef;
    s.valid = !s.valid;
    s.parity = parity_of(s);
    target.poke(i, s);
  }
  engine.restore_shard(0, snap);
  for (std::size_t i = 0; i < target.entry_count(); ++i) {
    EXPECT_EQ(target.peek(i), snap.entries[i]) << "entry " << i;
  }
}

// --- CompositeBoundary: the engine-level window's shard seams. ---

class CompositeBoundaryTest
    : public ::testing::TestWithParam<std::tuple<unsigned, cam::EvalMode>> {};

// Poke distinctive states at the first and last physical entry of every
// shard's window, then peek everything back: each write must land in its
// own shard and leave both neighbours' seam entries untouched.
TEST_P(CompositeBoundaryTest, PeekPokeRoundTripsAtShardSeams) {
  const auto [shards, mode] = GetParam();
  ShardedCamEngine engine(engine_config(shards), shard_config(mode));
  fill(engine, 8 * shards);
  FaultTarget& composite = *engine.fault_target();
  const std::size_t per = engine.shard(0).fault_target()->entry_count();
  ASSERT_EQ(composite.entry_count(), per * shards);

  std::vector<std::size_t> seams;
  for (unsigned s = 0; s < shards; ++s) {
    seams.push_back(s * per);            // first entry of the window
    seams.push_back(s * per + per - 1);  // last entry of the window
  }
  for (std::size_t i = 0; i < seams.size(); ++i) {
    EntryState state;
    state.stored = 0xb0a0'0000 + i;
    state.mask = 0;
    state.valid = true;
    state.parity = parity_of(state);
    composite.poke(seams[i], state);
  }
  for (std::size_t i = 0; i < seams.size(); ++i) {
    const EntryState got = composite.peek(seams[i]);
    EXPECT_EQ(got.stored, 0xb0a0'0000 + i) << "seam entry " << seams[i];
    EXPECT_TRUE(got.valid) << "seam entry " << seams[i];
  }

  // The composite window and the per-shard windows must be the same
  // storage: entry s*per + k of the composite is entry k of shard s.
  for (unsigned s = 0; s < shards; ++s) {
    const FaultTarget& own = *engine.shard(s).fault_target();
    EXPECT_EQ(composite.peek(s * per), own.peek(0)) << "shard " << s;
    EXPECT_EQ(composite.peek(s * per + per - 1), own.peek(per - 1))
        << "shard " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CompositeBoundaryTest,
    ::testing::Combine(::testing::Values(1u, 3u, 8u),
                       ::testing::Values(cam::EvalMode::kFast,
                                         cam::EvalMode::kReference)),
    [](const auto& info) {
      return "S" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == cam::EvalMode::kFast ? "_fast"
                                                              : "_reference");
    });

}  // namespace
}  // namespace dspcam::fault
