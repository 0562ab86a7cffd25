// Recovery plane of ShardedCamEngine: checkpoint/restore (Checkpoint*),
// quarantined-shard rebuild (Rebuild*), live resharding (Reshard*), and the
// record/replay determinism harness proving byte-identical completion
// streams across mid-trace recovery actions (RecoveryReplay*).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/error.h"
#include "src/fault/scrubber.h"
#include "src/fault/snapshot.h"
#include "src/sim/request_trace.h"
#include "src/system/checkpoint_io.h"
#include "src/system/driver.h"
#include "src/system/sharded_engine.h"

namespace dspcam::system {
namespace {

using sim::CompletionStream;
using sim::RequestTrace;

CamSystem::Config shard_config(cam::EvalMode mode = cam::EvalMode::kFast) {
  CamSystem::Config cfg;
  cfg.unit.block.cell.data_width = 32;
  cfg.unit.block.block_size = 32;
  cfg.unit.block.bus_width = 512;
  cfg.unit.block.parity = true;
  cfg.unit.block.eval_mode = mode;
  cfg.unit.unit_size = 4;  // 128 entries per shard
  cfg.unit.bus_width = 512;
  return cfg;
}

ShardedCamEngine::Config engine_config(unsigned shards, unsigned threads = 1) {
  ShardedCamEngine::Config cfg;
  cfg.shards = shards;
  cfg.step_threads = threads;
  return cfg;
}

std::vector<cam::Word> test_words(unsigned n) {
  std::vector<cam::Word> words;
  for (unsigned i = 0; i < n; ++i) words.push_back(i * 5 + 3);
  return words;
}

/// Completions can deliver a few cycles before the shard pipelines flush to
/// idle; snapshot/checkpoint require full settle.
void settle(ShardedCamEngine& engine) {
  for (unsigned i = 0; i < 100000 && !engine.idle(); ++i) engine.step();
  ASSERT_TRUE(engine.idle());
}

void fill(ShardedCamEngine& engine, const std::vector<cam::Word>& words) {
  CamDriver drv(engine);
  ASSERT_EQ(drv.store(words), words.size());
  settle(engine);
}

void expect_membership(ShardedCamEngine& engine,
                       const std::vector<cam::Word>& present) {
  CamDriver drv(engine);
  for (const cam::Word w : present) {
    const auto res = drv.search(w);
    EXPECT_TRUE(res.hit) << "key " << w;
    EXPECT_FALSE(res.shard_failed) << "key " << w;
  }
  EXPECT_FALSE(drv.search(0xdead0001).hit);
  settle(engine);
}

// --- Checkpoint: snapshot/restore of shards and whole engines. ---

TEST(Checkpoint, ShardSnapshotRestoreSurvivesCorruption) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  const auto words = test_words(64);
  fill(engine, words);

  const fault::ShardSnapshot snap = engine.snapshot_shard(1);
  // Scramble shard 1's live storage, then restore the snapshot over it.
  fault::FaultTarget& target = *engine.shard(1).fault_target();
  for (std::size_t i = 0; i < target.entry_count(); ++i) {
    fault::EntryState s = target.peek(i);
    s.stored ^= 0xffffffff;
    target.poke(i, s);
  }
  engine.restore_shard(1, snap);
  expect_membership(engine, words);
}

class EvalModePairTest
    : public ::testing::TestWithParam<std::tuple<cam::EvalMode, cam::EvalMode>> {
};

// The snapshot format is eval-mode independent: a checkpoint taken under one
// evaluation path restores under the other and serves identical answers.
TEST_P(EvalModePairTest, CheckpointRestoresAcrossEvalModes) {
  const auto [from_mode, to_mode] = GetParam();
  ShardedCamEngine source(engine_config(4), shard_config(from_mode));
  const auto words = test_words(64);
  fill(source, words);

  const auto ckpt = source.checkpoint();
  ShardedCamEngine target(engine_config(4), shard_config(to_mode));
  target.restore(ckpt);
  expect_membership(target, words);

  // Addressed answers must also agree, not just membership.
  CamDriver src_drv(source);
  CamDriver dst_drv(target);
  for (const cam::Word w : words) {
    const auto a = src_drv.search(w);
    const auto b = dst_drv.search(w);
    EXPECT_EQ(a.global_address, b.global_address) << "key " << w;
    EXPECT_EQ(a.shard, b.shard) << "key " << w;
    EXPECT_EQ(a.match_count, b.match_count) << "key " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, EvalModePairTest,
    ::testing::Values(
        std::make_tuple(cam::EvalMode::kFast, cam::EvalMode::kReference),
        std::make_tuple(cam::EvalMode::kReference, cam::EvalMode::kFast)),
    [](const auto& info) {
      const auto fmt = [](cam::EvalMode m) {
        return m == cam::EvalMode::kFast ? std::string("fast")
                                         : std::string("reference");
      };
      return fmt(std::get<0>(info.param)) + "_to_" + fmt(std::get<1>(info.param));
    });

TEST(Checkpoint, CorruptAndMismatchedSnapshotsRejected) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  fill(engine, test_words(64));

  fault::ShardSnapshot snap = engine.snapshot_shard(1);
  snap.entries[3].stored ^= 1;  // bit flip without re-seal: checksum trips
  EXPECT_THROW(engine.restore_shard(1, snap), SimError);

  fault::ShardSnapshot wrong_slot = engine.snapshot_shard(1);
  EXPECT_THROW(engine.restore_shard(0, wrong_slot), SimError);

  fault::ShardSnapshot wrong_geometry = engine.snapshot_shard(1);
  wrong_geometry.data_width = 16;
  wrong_geometry.seal();  // well-formed but for another machine: refused
  EXPECT_THROW(engine.restore_shard(1, wrong_geometry), SimError);

  // A quarantined shard cannot be silently overwritten back into service.
  engine.quarantine_shard(1);
  fault::ShardSnapshot good = engine.snapshot_shard(1);
  EXPECT_THROW(engine.restore_shard(1, good), SimError);
}

TEST(Checkpoint, RequiresIdleEngine) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  CamDriver drv(engine);
  drv.store(test_words(32));
  settle(engine);

  cam::UnitRequest req;
  req.op = cam::OpKind::kSearch;
  req.keys = {3};
  drv.submit_async(std::move(req));
  EXPECT_THROW(engine.checkpoint(), SimError)
      << "in-flight work must refuse a checkpoint";
  drv.drain();
  while (drv.try_pop_completion()) {
  }
  settle(engine);
  EXPECT_NO_THROW(engine.checkpoint());
}

TEST(Checkpoint, FileRoundTripRestoresFreshEngine) {
  const std::string path = ::testing::TempDir() + "recovery_ckpt_test.jsonl";
  ShardedCamEngine engine(engine_config(4), shard_config());
  const auto words = test_words(64);
  fill(engine, words);

  const auto ckpt = engine.checkpoint();
  save_checkpoint(ckpt, path);
  const auto loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.version, ckpt.version);
  EXPECT_EQ(loaded.shards, ckpt.shards);
  EXPECT_EQ(loaded.partition, ckpt.partition);

  ShardedCamEngine fresh(engine_config(4), shard_config());
  fresh.restore(loaded);
  expect_membership(fresh, words);
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptFilesRejectedByLoader) {
  const std::string path = ::testing::TempDir() + "recovery_bad_ckpt.jsonl";
  ShardedCamEngine engine(engine_config(2), shard_config());
  fill(engine, test_words(16));
  save_checkpoint(engine.checkpoint(), path);

  // Flip one digit of a stored checksum: the loader re-verifies content.
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const auto pos = text.find("\"checksum\":");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 12] = text[pos + 12] == '9' ? '8' : '9';
  std::ofstream(path, std::ios::trunc) << text;
  EXPECT_THROW(load_checkpoint(path), SimError);

  std::ofstream(path, std::ios::trunc) << "not json at all\n";
  EXPECT_THROW(load_checkpoint(path), SimError);
  std::remove(path.c_str());
  EXPECT_THROW(load_checkpoint(path), SimError) << "missing file";
}

TEST(Checkpoint, RestoreRebuildsFleetWhenShardCountDiffers) {
  ShardedCamEngine source(engine_config(4), shard_config());
  const auto words = test_words(64);
  fill(source, words);
  const auto ckpt = source.checkpoint();

  // A 2-shard engine adopting a 4-shard checkpoint must grow its fleet.
  ShardedCamEngine target(engine_config(2), shard_config());
  target.restore(ckpt);
  EXPECT_EQ(target.shard_count(), 4u);
  expect_membership(target, words);
}

// --- Rebuild: quarantined shards come back via verified restore. ---

TEST(Rebuild, FromSnapshotReadmitsQuarantinedShard) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  const auto words = test_words(64);
  fill(engine, words);

  const unsigned dead = engine.shard_of(words[0]);
  const fault::ShardSnapshot snap = engine.snapshot_shard(dead);
  engine.quarantine_shard(dead);
  ASSERT_TRUE(engine.shard_quarantined(dead));
  {
    CamDriver drv(engine);
    EXPECT_TRUE(drv.search(words[0]).shard_failed);
    settle(engine);
  }

  engine.rebuild_shard(dead, snap);
  EXPECT_FALSE(engine.shard_quarantined(dead));
  EXPECT_EQ(engine.quarantined_count(), 0u);
  expect_membership(engine, words);
  EXPECT_NE(engine.debug_dump().find("rebuild shard"), std::string::npos);
}

TEST(Rebuild, FromGoldenShadowRepairsCorruptedStorage) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  const auto words = test_words(64);
  fill(engine, words);
  fault::Scrubber scrubber(*engine.fault_target(), {});
  scrubber.capture();

  const unsigned dead = engine.shard_of(words[1]);
  engine.quarantine_shard(dead);
  // The reason it was quarantined: its storage plane is trash.
  fault::FaultTarget& target = *engine.shard(dead).fault_target();
  for (std::size_t i = 0; i < target.entry_count(); ++i) {
    target.poke(i, fault::EntryState{});
  }

  engine.rebuild_shard(dead, scrubber);
  EXPECT_FALSE(engine.shard_quarantined(dead));
  expect_membership(engine, words);
}

TEST(Rebuild, RefusesInServiceShardAndUncapturedShadow) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  const auto words = test_words(32);
  fill(engine, words);

  const fault::ShardSnapshot snap = engine.snapshot_shard(0);
  EXPECT_THROW(engine.rebuild_shard(0, snap), SimError)
      << "restore_shard is the path for live shards";

  fault::Scrubber uncaptured(*engine.fault_target(), {});
  engine.quarantine_shard(0);
  EXPECT_THROW(engine.rebuild_shard(0, uncaptured), SimError);
  EXPECT_TRUE(engine.shard_quarantined(0)) << "failed rebuild must not readmit";
  engine.rebuild_shard(0, snap);
  EXPECT_FALSE(engine.shard_quarantined(0));
}

TEST(Rebuild, InflightTicketsNeverDropOrDuplicate) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  CamDriver drv(engine);
  const auto words = test_words(64);
  drv.store(words);
  settle(engine);
  const fault::ShardSnapshot snap = engine.snapshot_shard(engine.shard_of(words[0]));

  const unsigned dead = engine.shard_of(words[0]);
  std::vector<CamDriver::Ticket> tickets;
  for (const cam::Word w : words) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    req.keys = {w};
    tickets.push_back(drv.submit_async(std::move(req)));
  }
  engine.quarantine_shard(dead);
  drv.drain();
  std::vector<bool> seen(tickets.size(), false);
  while (auto c = drv.try_pop_completion()) {
    const std::size_t idx = static_cast<std::size_t>(c->ticket - tickets[0]);
    ASSERT_LT(idx, seen.size());
    EXPECT_FALSE(seen[idx]) << "duplicate completion for ticket " << c->ticket;
    seen[idx] = true;
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "dropped ticket " << tickets[i];
  }

  settle(engine);
  engine.rebuild_shard(dead, snap);
  expect_membership(engine, words);
}

// A beat spread over several shards loses one of them mid-flight: every
// position the dead shard owed comes back shard_failed with its submitted
// key, and the positions the live shards answered are exactly what a
// healthy twin engine returns.
TEST(Rebuild, QuarantineBackFillKeepsSubmittedKeys) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  ShardedCamEngine twin(engine_config(4), shard_config());
  const auto words = test_words(64);
  fill(engine, words);
  fill(twin, words);
  const unsigned dead = engine.shard_of(words[0]);

  cam::UnitRequest req;
  req.op = cam::OpKind::kSearch;
  req.seq = 1;
  unsigned on_dead = 0;
  std::vector<bool> seen_shard(4, false);
  for (const cam::Word w : words) {
    if (engine.shard_of(w) == dead ? on_dead >= 2 : req.keys.size() >= 5) continue;
    on_dead += engine.shard_of(w) == dead;
    seen_shard[engine.shard_of(w)] = true;
    req.keys.push_back(w);      // stored
    req.keys.push_back(w + 1);  // absent (stored words are 3 mod 5)
  }
  ASSERT_EQ(on_dead, 2u);
  ASSERT_GE(std::count(seen_shard.begin(), seen_shard.end(), true), 2);

  ASSERT_TRUE(twin.try_submit(req));
  ASSERT_TRUE(engine.try_submit(req));
  engine.step();
  ASSERT_FALSE(engine.try_pop_response().has_value()) << "beat finished too early";
  engine.quarantine_shard(dead);

  const auto wait_for = [](ShardedCamEngine& e) {
    for (unsigned i = 0; i < 1000; ++i) {
      if (auto resp = e.try_pop_response()) return resp;
      e.step();
    }
    return std::optional<cam::UnitResponse>{};
  };
  const auto got = wait_for(engine);
  const auto want = wait_for(twin);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(want.has_value());
  ASSERT_EQ(got->results.size(), req.keys.size());
  for (std::size_t i = 0; i < req.keys.size(); ++i) {
    const cam::UnitSearchResult& r = got->results[i];
    EXPECT_EQ(r.key, req.keys[i]) << "position " << i;
    if (engine.shard_of(req.keys[i]) == dead) {
      EXPECT_TRUE(r.shard_failed) << "position " << i;
      EXPECT_FALSE(r.hit) << "position " << i;
      EXPECT_EQ(r.shard, dead) << "position " << i;
    } else {
      const cam::UnitSearchResult& w = want->results[i];
      EXPECT_FALSE(r.shard_failed) << "position " << i;
      EXPECT_EQ(r.hit, w.hit) << "position " << i;
      EXPECT_EQ(r.global_address, w.global_address) << "position " << i;
      EXPECT_EQ(r.match_count, w.match_count) << "position " << i;
      EXPECT_EQ(r.shard, w.shard) << "position " << i;
    }
  }
}

// --- Reshard: live hash repartitioning. ---

TEST(Reshard, GrowPreservesMembershipAndRouting) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  const auto words = test_words(64);
  fill(engine, words);

  const auto report = engine.reshard(8);
  EXPECT_EQ(report.old_shards, 4u);
  EXPECT_EQ(report.new_shards, 8u);
  EXPECT_EQ(report.entries_moved, words.size());
  EXPECT_EQ(engine.shard_count(), 8u);

  CamDriver drv(engine);
  const unsigned shard_cap = engine.shard(0).capacity();
  for (const cam::Word w : words) {
    const auto res = drv.search(w);
    ASSERT_TRUE(res.hit) << "key " << w;
    EXPECT_EQ(res.shard, engine.shard_of(w)) << "key " << w;
    EXPECT_EQ(res.global_address / shard_cap, res.shard) << "key " << w;
  }
  EXPECT_FALSE(drv.search(0xdead0001).hit);
}

TEST(Reshard, ShrinkAndSameCountAlsoWork) {
  ShardedCamEngine engine(engine_config(8), shard_config());
  const auto words = test_words(64);
  fill(engine, words);

  EXPECT_EQ(engine.reshard(3).new_shards, 3u);
  expect_membership(engine, words);
  EXPECT_EQ(engine.reshard(3).entries_moved, words.size());
  expect_membership(engine, words);
}

TEST(Reshard, SettlesInflightTicketsBeforeTheSwap) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  CamDriver drv(engine);
  const auto words = test_words(64);
  drv.store(words);
  settle(engine);

  std::vector<CamDriver::Ticket> tickets;
  for (const cam::Word w : words) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    req.keys = {w};
    tickets.push_back(drv.submit_async(std::move(req)));
  }
  const auto report = engine.reshard(8);
  EXPECT_GT(report.pause_cycles, 0u) << "in-flight work forces a settle pause";

  drv.drain();
  std::size_t completions = 0;
  while (auto c = drv.try_pop_completion()) {
    ++completions;
    ASSERT_EQ(c->results.size(), 1u);
    EXPECT_TRUE(c->results[0].hit) << "ticket " << c->ticket;
  }
  EXPECT_EQ(completions, tickets.size());
  expect_membership(engine, words);
}

TEST(Reshard, RejectsRangePartitionQuarantineAndZero) {
  auto range_cfg = engine_config(4);
  range_cfg.partition = ShardedCamEngine::Partition::kRange;
  range_cfg.key_bits = 12;
  ShardedCamEngine range_engine(range_cfg, shard_config());
  EXPECT_THROW(range_engine.reshard(8), SimError);

  ShardedCamEngine engine(engine_config(4), shard_config());
  fill(engine, test_words(16));
  EXPECT_THROW(engine.reshard(0), ConfigError);
  engine.quarantine_shard(2);
  EXPECT_THROW(engine.reshard(8), SimError)
      << "a quarantined shard's entries cannot be collected";
}

TEST(Reshard, OverflowRejectedWhenNewFleetCannotHoldAShardsBucket) {
  // 64 entries all hash-bucketed into 1 shard of 128: fits. But first fill
  // a 4-shard engine beyond one shard's capacity, then shrink to 1.
  ShardedCamEngine engine(engine_config(4), shard_config());
  const auto words = test_words(200);  // > 128 = single-shard capacity
  fill(engine, words);
  EXPECT_THROW(engine.reshard(1), SimError);
}

// --- RecoveryReplay: deterministic record/replay across recovery actions. ---

RequestTrace search_trace(const std::vector<cam::Word>& words) {
  RequestTrace trace;
  for (std::size_t i = 0; i < words.size(); ++i) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    // Mix hits and misses so the streams carry real signal.
    req.keys = {i % 3 == 0 ? (0x5000000 + static_cast<cam::Word>(i))
                           : words[i % words.size()]};
    trace.record(req);
  }
  return trace;
}

class ReplayScheduleTest
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

// Byte-identical completion streams (full placement: addresses, groups,
// shards) when a quarantine -> rebuild cycle interrupts the trace, under
// every host threading and horizon schedule.
TEST_P(ReplayScheduleTest, QuarantineRebuildKeepsStreamByteIdentical) {
  const auto [threads, horizon] = GetParam();
  const auto words = test_words(64);
  const RequestTrace trace = search_trace(words);
  const std::size_t half = trace.size() / 2;

  const auto run = [&](bool disturb) {
    ShardedCamEngine engine(engine_config(4, threads), shard_config());
    fill(engine, words);
    CamDriver drv(engine);
    drv.set_horizon_batching(horizon);
    CompletionStream stream(CompletionStream::Placement::kFull);
    drv.replay_trace(trace, stream, 0, half);
    if (disturb) {
      for (unsigned i = 0; i < 100000 && !engine.idle(); ++i) engine.step();
      const unsigned dead = engine.shard_of(words[0]);
      const fault::ShardSnapshot snap = engine.snapshot_shard(dead);
      engine.quarantine_shard(dead);
      engine.rebuild_shard(dead, snap);
    }
    drv.replay_trace(trace, stream, half);
    return stream.bytes();
  };

  const std::string baseline = run(false);
  const std::string disturbed = run(true);
  EXPECT_EQ(baseline, disturbed)
      << "threads=" << threads << " horizon=" << horizon;
}

// Semantically identical streams (hit/miss/match_count; placement dropped -
// resharding relocates entries by design) when a 4 -> 8 reshard interrupts
// the trace.
TEST_P(ReplayScheduleTest, ReshardKeepsStreamSemanticallyIdentical) {
  const auto [threads, horizon] = GetParam();
  const auto words = test_words(64);
  const RequestTrace trace = search_trace(words);
  const std::size_t half = trace.size() / 2;

  const auto run = [&](bool disturb) {
    ShardedCamEngine engine(engine_config(4, threads), shard_config());
    fill(engine, words);
    CamDriver drv(engine);
    drv.set_horizon_batching(horizon);
    CompletionStream stream(CompletionStream::Placement::kSemantic);
    drv.replay_trace(trace, stream, 0, half);
    if (disturb) engine.reshard(8);
    drv.replay_trace(trace, stream, half);
    return stream.bytes();
  };

  const std::string baseline = run(false);
  const std::string disturbed = run(true);
  EXPECT_EQ(baseline, disturbed)
      << "threads=" << threads << " horizon=" << horizon;
}

// The same schedule parameters must also agree with EACH OTHER on the
// disturbed run: recovery actions cannot make determinism schedule-shaped.
TEST(RecoveryReplay, DisturbedStreamsAgreeAcrossSchedules) {
  const auto words = test_words(64);
  const RequestTrace trace = search_trace(words);
  const std::size_t half = trace.size() / 2;

  std::vector<std::string> streams;
  for (const unsigned threads : {1u, 4u}) {
    for (const bool horizon : {false, true}) {
      ShardedCamEngine engine(engine_config(4, threads), shard_config());
      fill(engine, words);
      CamDriver drv(engine);
      drv.set_horizon_batching(horizon);
      CompletionStream stream(CompletionStream::Placement::kSemantic);
      drv.replay_trace(trace, stream, 0, half);
      engine.reshard(8);
      drv.replay_trace(trace, stream, half);
      streams.push_back(stream.bytes());
    }
  }
  for (std::size_t i = 1; i < streams.size(); ++i) {
    EXPECT_EQ(streams[0], streams[i]) << "schedule " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ReplayScheduleTest,
    ::testing::Combine(::testing::Values(1u, 4u), ::testing::Bool()),
    [](const auto& info) {
      return "threads" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_horizon" : "_cycle");
    });

TEST(RecoveryReplay, TraceRecordsSubmittedRequestsOnly) {
  ShardedCamEngine engine(engine_config(2), shard_config());
  CamDriver drv(engine);
  drv.store(test_words(16));
  settle(engine);

  RequestTrace trace;
  drv.set_request_trace(&trace);
  cam::UnitRequest good;
  good.op = cam::OpKind::kSearch;
  good.keys = {3};
  drv.submit_async(std::move(good));
  cam::UnitRequest bad;
  bad.op = cam::OpKind::kSearch;  // no keys: rejected before recording
  EXPECT_THROW(drv.submit_async(std::move(bad)), SimError);
  drv.set_request_trace(nullptr);
  EXPECT_EQ(trace.size(), 1u) << "rejected requests must never replay";
  drv.drain();
  while (drv.try_pop_completion()) {
  }
}

}  // namespace
}  // namespace dspcam::system
