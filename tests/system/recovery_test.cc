// Recovery plane of ShardedCamEngine: checkpoint/restore (Checkpoint*),
// quarantined-shard rebuild (Rebuild*), live resharding (Reshard*), and the
// record/replay determinism harness proving byte-identical completion
// streams across mid-trace recovery actions (RecoveryReplay*), and the
// recovery telemetry pinned against a golden file (RecoveryTelemetry*).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <ostream>
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
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"

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
  cfg.unit.eval_mode = mode;
  cfg.unit.unit_size = 4;  // 128 entries per shard
  cfg.unit.bus_width = 512;
  return cfg;
}

ShardedCamEngine::Config engine_config(unsigned shards) {
  ShardedCamEngine::Config cfg;
  cfg.shards = shards;
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

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
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

// restore() readmits every shard it loads, so a checkpoint holding a
// quarantined shard's corrupt entries would bring them back into service
// unverified: keys it stored would read as plain misses instead of
// shard_failed. checkpoint() refuses instead; rebuild_shard() comes first.
TEST(Checkpoint, RefusesWhileAShardIsQuarantined) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  fill(engine, test_words(64));
  fault::FaultTarget& target = *engine.shard(1).fault_target();
  for (std::size_t i = 0; i < target.entry_count(); ++i) {
    fault::EntryState e = target.peek(i);
    if (!e.valid) continue;
    e.stored ^= 1;
    target.poke(i, e);
  }
  engine.quarantine_shard(1);
  EXPECT_THROW(engine.checkpoint(), SimError);
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

// A restore carries the shards' fill cursors, so appends after it land past
// the restored entries instead of overwriting them from fill 0 (a restore
// that dropped the cursors passed every other case here).
TEST(Checkpoint, AppendAfterRestoreKeepsRestoredEntries) {
  ShardedCamEngine source(engine_config(4), shard_config());
  const auto words = test_words(64);
  fill(source, words);
  std::vector<std::uint32_t> address;
  {
    CamDriver drv(source);
    for (const cam::Word w : words) {
      const auto res = drv.search(w);
      ASSERT_TRUE(res.hit) << "key " << w;
      address.push_back(res.global_address);
    }
  }
  settle(source);
  const auto ckpt = source.checkpoint();

  ShardedCamEngine fresh(engine_config(4), shard_config());
  fresh.restore(ckpt);
  std::vector<cam::Word> appended;
  for (unsigned i = 0; i < 16; ++i) appended.push_back(0x100000 + i * 7);
  fill(fresh, appended);

  CamDriver drv(fresh);
  for (std::size_t i = 0; i < words.size(); ++i) {
    const auto res = drv.search(words[i]);
    EXPECT_TRUE(res.hit) << "restored key " << words[i];
    EXPECT_EQ(res.global_address, address[i]) << "restored key " << words[i];
  }
  for (const cam::Word w : appended) EXPECT_TRUE(drv.search(w).hit) << "appended key " << w;
}

TEST(Checkpoint, CorruptFilesRejectedByLoader) {
  const std::string path = ::testing::TempDir() + "recovery_bad_ckpt.jsonl";
  ShardedCamEngine engine(engine_config(2), shard_config());
  fill(engine, test_words(16));
  save_checkpoint(engine.checkpoint(), path);

  // Flip one digit of a stored checksum: the loader re-verifies content.
  std::string text = read_file(path);
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

// 200 000 nested arrays used to overflow the stack of the recursive
// syntax check in front of the field scan; the parser caps the nesting.
TEST(Checkpoint, DeepNestingIsRefusedByTheLoader) {
  const std::string path = ::testing::TempDir() + "recovery_deep_ckpt.jsonl";
  std::ofstream(path, std::ios::trunc)
      << std::string(200000, '[') << std::string(200000, ']') << "\n";
  EXPECT_THROW(load_checkpoint(path), SimError);
  std::remove(path.c_str());
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

// A refused restore() fails closed: the shard count and the membership of
// the engine it was aimed at stay exactly as they were.
TEST(Checkpoint, CapacityMismatchRefusedBeforeTheFleetIsReplaced) {
  CamSystem::Config small = shard_config();
  small.unit.unit_size = 2;  // 64 entries per shard
  ShardedCamEngine source(engine_config(4), small);
  fill(source, test_words(16));
  const auto ckpt = source.checkpoint();

  ShardedCamEngine target(engine_config(2), shard_config());  // 128 per shard
  const auto words = test_words(40);
  fill(target, words);
  EXPECT_THROW(target.restore(ckpt), SimError);
  EXPECT_EQ(target.shard_count(), 2u);
  expect_membership(target, words);
}

TEST(Checkpoint, BadSnapshotRefusedBeforeAnyShardIsOverwritten) {
  std::vector<cam::Word> other;
  for (const cam::Word w : test_words(64)) other.push_back(w + 100000);
  ShardedCamEngine source(engine_config(4), shard_config());
  fill(source, other);
  const auto good = source.checkpoint();

  ShardedCamEngine target(engine_config(4), shard_config());
  const auto words = test_words(64);
  fill(target, words);

  auto bad_seal = good;
  bad_seal.shard_snaps[2].entries[0].stored ^= 1;  // no re-seal
  EXPECT_THROW(target.restore(bad_seal), SimError);
  auto bad_geometry = good;
  bad_geometry.shard_snaps[3].data_width = 16;
  bad_geometry.shard_snaps[3].seal();
  EXPECT_THROW(target.restore(bad_geometry), SimError);

  EXPECT_EQ(target.shard_count(), 4u);
  expect_membership(target, words);
  CamDriver drv(target);
  EXPECT_FALSE(drv.search(other[0]).hit) << "shard 0 took the checkpoint's contents";
  EXPECT_FALSE(drv.search(other[1]).hit);
}

TEST(Checkpoint, LoadedKeyBitsAreValidatedBeforeAdoption) {
  const std::string path = ::testing::TempDir() + "recovery_key_bits_ckpt.jsonl";
  ShardedCamEngine engine(engine_config(2), shard_config());
  const auto words = test_words(16);
  fill(engine, words);
  save_checkpoint(engine.checkpoint(), path);

  std::string text = read_file(path);
  const auto pos = text.find("\"key_bits\":32");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 13, "\"key_bits\":0");
  std::ofstream(path, std::ios::trunc) << text;
  const auto loaded = load_checkpoint(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.key_bits, 0u);

  EXPECT_THROW(engine.restore(loaded), ConfigError);
  EXPECT_EQ(engine.config().key_bits, 32u);
  EXPECT_EQ(engine.shard_count(), 2u);
  expect_membership(engine, words);
}

/// Replaces the first `from` in `text` with `to`; `from` must be present.
void replace_first(std::string& text, const std::string& from, const std::string& to) {
  const auto pos = text.find(from);
  ASSERT_NE(pos, std::string::npos) << from;
  text.replace(pos, from.size(), to);
}

/// The file's records, header first (the writer ends every line with '\n').
std::vector<std::string> records_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t lo = 0;
  for (std::size_t nl; (nl = text.find('\n', lo)) != std::string::npos; lo = nl + 1) {
    lines.push_back(text.substr(lo, nl - lo));
  }
  return lines;
}

std::string join_records(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

/// One hand edit of a saved checkpoint file that load_checkpoint must refuse.
struct LoadDefect {
  const char* name;
  void (*edit)(std::string& text);
};

void PrintTo(const LoadDefect& defect, std::ostream* os) { *os << defect.name; }

class CheckpointLoad : public ::testing::TestWithParam<LoadDefect> {};

// The file holds 2 shards of 128 32-bit entries. Each of the first five
// edits reads back as the saved value when the number is narrowed to 32 bits
// or read with a wrapping minus sign, so a loader that did either would hand
// restore() a checkpoint equal to the original.
TEST_P(CheckpointLoad, RefusesTheEditedFile) {
  const std::string path =
      ::testing::TempDir() + "checkpoint_load_" + GetParam().name + ".jsonl";
  ShardedCamEngine engine(engine_config(2), shard_config());
  fill(engine, test_words(16));
  save_checkpoint(engine.checkpoint(), path);
  std::string text = read_file(path);
  GetParam().edit(text);
  std::ofstream(path, std::ios::trunc) << text;
  EXPECT_THROW(load_checkpoint(path), SimError);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Edits, CheckpointLoad,
    ::testing::Values(
        LoadDefect{"shards_over_32_bits",
                   [](std::string& t) {
                     replace_first(t, "\"shards\":2,", "\"shards\":4294967298,");
                   }},
        LoadDefect{"shards_negative",
                   [](std::string& t) {
                     replace_first(t, "\"shards\":2,",
                                   "\"shards\":-18446744073709551614,");
                   }},
        LoadDefect{"key_bits_over_32_bits",
                   [](std::string& t) {
                     replace_first(t, "\"key_bits\":32,", "\"key_bits\":4294967328,");
                   }},
        LoadDefect{"shard_capacity_negative",
                   [](std::string& t) {
                     replace_first(t, "\"shard_capacity\":128}",
                                   "\"shard_capacity\":-18446744073709551488}");
                   }},
        LoadDefect{"data_width_over_32_bits",
                   [](std::string& t) {
                     // Shard 0's record; its checksum covers the narrowed 32.
                     replace_first(t, "\"data_width\":32,", "\"data_width\":4294967328,");
                   }},
        LoadDefect{"trailing_garbage",
                   [](std::string& t) {
                     replace_first(t, "\"shards\":2,", "\"shards\":2xyz,");
                   }},
        LoadDefect{"truncated_record",
                   [](std::string& t) { t.resize(t.size() - t.size() / 4); }},
        LoadDefect{"three_field_entry",
                   [](std::string& t) {
                     const auto open = t.find("\"entries\":[[");
                     ASSERT_NE(open, std::string::npos);
                     const auto close = t.find(']', open);
                     const auto comma = t.rfind(',', close);
                     t.erase(comma, close - comma);
                   }},
        LoadDefect{"shards_out_of_order",
                   [](std::string& t) {
                     auto lines = records_of(t);
                     ASSERT_EQ(lines.size(), 3u);
                     std::swap(lines[1], lines[2]);
                     t = join_records(lines);
                   }},
        LoadDefect{"shard_duplicated",
                   [](std::string& t) {
                     auto lines = records_of(t);
                     ASSERT_EQ(lines.size(), 3u);
                     lines.insert(lines.begin() + 2, lines[1]);
                     t = join_records(lines);
                   }},
        LoadDefect{"unknown_partition",
                   [](std::string& t) {
                     replace_first(t, "\"partition\":\"hash\"",
                                   "\"partition\":\"modulo\"");
                   }}),
    [](const auto& info) { return std::string(info.param.name); });

/// One way a checkpoint can be unfit to restore, and the error it must
/// raise.
struct RestoreDefect {
  const char* name;
  void (*spoil)(ShardedCamEngine::EngineCheckpoint&);
  bool config_error;  ///< ConfigError (adopted config) rather than SimError.
};

void PrintTo(const RestoreDefect& defect, std::ostream* os) { *os << defect.name; }

class RestoreRefusalTest : public ::testing::TestWithParam<RestoreDefect> {};

// Each refusal branch of restore(), hit on its own. The checkpoint holds 4
// shards and the engine 2, and the defective snapshot is the last one, so a
// check that ran after the fleet swap or after the first poke would leave
// a changed shard count or overwritten shards behind.
TEST_P(RestoreRefusalTest, LeavesTheEngineAsItWas) {
  std::vector<cam::Word> other;
  for (const cam::Word w : test_words(64)) other.push_back(w + 100000);
  ShardedCamEngine source(engine_config(4), shard_config());
  fill(source, other);
  auto ckpt = source.checkpoint();
  GetParam().spoil(ckpt);

  ShardedCamEngine target(engine_config(2), shard_config());
  const auto words = test_words(40);
  fill(target, words);
  if (GetParam().config_error) {
    EXPECT_THROW(target.restore(ckpt), ConfigError);
  } else {
    EXPECT_THROW(target.restore(ckpt), SimError);
  }

  EXPECT_EQ(target.shard_count(), 2u);
  EXPECT_EQ(target.config().shards, 2u);
  EXPECT_EQ(target.config().key_bits, 32u);
  EXPECT_EQ(target.capacity(), 2 * 128u);
  expect_membership(target, words);
  CamDriver drv(target);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(drv.search(other[i]).hit) << "took the checkpoint's key " << other[i];
  }
}

/// The last snapshot of a 4-shard checkpoint.
fault::ShardSnapshot& last_snap(ShardedCamEngine::EngineCheckpoint& c) {
  return c.shard_snaps.back();
}

INSTANTIATE_TEST_SUITE_P(
    Defects, RestoreRefusalTest,
    ::testing::Values(
        RestoreDefect{"checkpoint_version",
                      [](auto& c) { c.version = ShardedCamEngine::EngineCheckpoint::kVersion + 1; },
                      false},
        RestoreDefect{"snapshot_count",
                      [](auto& c) { c.shard_snaps.pop_back(); }, false},
        RestoreDefect{"key_bits", [](auto& c) { c.key_bits = 65; }, true},
        RestoreDefect{"shard_capacity", [](auto& c) { c.shard_capacity = 64; }, false},
        RestoreDefect{"snapshot_checksum",
                      [](auto& c) { last_snap(c).entries[0].stored ^= 1; }, false},
        RestoreDefect{"snapshot_version",
                      [](auto& c) { last_snap(c).version = fault::ShardSnapshot::kVersion + 1; },
                      false},
        RestoreDefect{"snapshot_entry_count",
                      [](auto& c) {
                        last_snap(c).entries.pop_back();
                        last_snap(c).entry_count = last_snap(c).entries.size();
                        last_snap(c).seal();
                      },
                      false},
        RestoreDefect{"snapshot_entry_bits",
                      [](auto& c) {
                        ++last_snap(c).entry_bits;
                        last_snap(c).seal();
                      },
                      false},
        RestoreDefect{"snapshot_parity",
                      [](auto& c) {
                        last_snap(c).parity_protected = !last_snap(c).parity_protected;
                        last_snap(c).seal();
                      },
                      false},
        RestoreDefect{"snapshot_slot",
                      [](auto& c) {
                        last_snap(c).shard = 0;
                        last_snap(c).seal();
                      },
                      false},
        RestoreDefect{"snapshot_data_width",
                      [](auto& c) {
                        last_snap(c).data_width = 16;
                        last_snap(c).seal();
                      },
                      false},
        RestoreDefect{"snapshot_cam_kind",
                      [](auto& c) {
                        last_snap(c).cam_kind = "TCAM";
                        last_snap(c).seal();
                      },
                      false},
        RestoreDefect{"snapshot_capacity",
                      [](auto& c) {
                        last_snap(c).capacity = 64;
                        last_snap(c).seal();
                      },
                      false}),
    [](const auto& info) { return std::string(info.param.name); });

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

// Both sources go through the same bounds check before touching anything.
TEST(Rebuild, OutOfRangeShardRefusedForBothSources) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  const auto words = test_words(64);
  fill(engine, words);
  const fault::ShardSnapshot snap = engine.snapshot_shard(3);
  fault::Scrubber scrubber(*engine.fault_target(), {});
  scrubber.capture();

  EXPECT_THROW(engine.rebuild_shard(4, snap), ConfigError);
  EXPECT_THROW(engine.rebuild_shard(4, scrubber), ConfigError);
  EXPECT_EQ(engine.shard_count(), 4u);
  EXPECT_EQ(engine.quarantined_count(), 0u);
  expect_membership(engine, words);
}

// configure_groups() used to skip a quarantined shard, and rebuild_shard()
// then readmitted it on the old grouping: a heterogeneous fleet whose
// addressed routing (by shard 0's capacity) no longer matched the global
// addresses the other shards reported.
TEST(Rebuild, ConfigureGroupsRefusedWhileAShardIsQuarantined) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  const auto words = test_words(64);
  fill(engine, words);
  const fault::ShardSnapshot snap = engine.snapshot_shard(0);
  engine.quarantine_shard(0);

  EXPECT_THROW(engine.configure_groups(2), SimError);
  for (unsigned s = 0; s < engine.shard_count(); ++s) {
    EXPECT_EQ(engine.shard(s).max_keys_per_beat(), 1u) << "shard " << s;
    EXPECT_EQ(engine.shard(s).capacity(), 128u) << "shard " << s;
  }

  engine.rebuild_shard(0, snap);
  expect_membership(engine, words);
  engine.configure_groups(2);
  for (unsigned s = 0; s < engine.shard_count(); ++s) {
    EXPECT_EQ(engine.shard(s).max_keys_per_beat(), 2u) << "shard " << s;
    EXPECT_EQ(engine.shard(s).capacity(), engine.shard(0).capacity()) << "shard " << s;
  }
}

// A snapshot and a golden shadow captured at the same moment rebuild a
// trashed shard to the same logical entries.
TEST(Rebuild, SnapshotAndShadowSourcesRestoreTheSameEntries) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  const auto words = test_words(64);
  fill(engine, words);
  const unsigned dead = engine.shard_of(words[2]);
  const fault::ShardSnapshot snap = engine.snapshot_shard(dead);
  fault::Scrubber scrubber(*engine.fault_target(), {});
  scrubber.capture();
  const auto healthy = engine.shard(dead).logical_entries();

  const auto trash_and_quarantine = [&] {
    engine.quarantine_shard(dead);
    fault::FaultTarget& target = *engine.shard(dead).fault_target();
    for (std::size_t i = 0; i < target.entry_count(); ++i) {
      target.poke(i, fault::EntryState{});
    }
  };
  trash_and_quarantine();
  engine.rebuild_shard(dead, snap);
  const auto from_snapshot = engine.shard(dead).logical_entries();
  trash_and_quarantine();
  engine.rebuild_shard(dead, scrubber);
  const auto from_shadow = engine.shard(dead).logical_entries();

  EXPECT_EQ(from_snapshot, healthy);
  EXPECT_EQ(from_shadow, healthy);
  EXPECT_FALSE(engine.shard_quarantined(dead));
  expect_membership(engine, words);
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

// place() keeps exactly the valid entries, each in the bucket shard_of()
// names for the new count, in input order - duplicates included.
TEST(Reshard, PlaceBucketsByPartitionerInInputOrder) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  std::vector<fault::EntryState> entries;
  for (unsigned i = 0; i < 40; ++i) {
    fault::EntryState e;
    e.stored = i % 7 == 3 ? 11 : i * 13 + 1;  // key 11 recurs
    e.mask = i;
    e.valid = i % 5 != 2;                      // invalid holes
    entries.push_back(e);
  }
  for (const unsigned count : {1u, 3u, 4u, 8u}) {
    std::vector<std::vector<fault::EntryState>> want(count);
    for (const fault::EntryState& e : entries) {
      if (e.valid) want[engine.shard_of(e.stored, count)].push_back(e);
    }
    const auto got = engine.place(entries, count);
    ASSERT_EQ(got.size(), count);
    for (unsigned s = 0; s < count; ++s) {
      EXPECT_EQ(got[s], want[s]) << "bucket " << s << " of " << count;
    }
  }
}

TEST(Reshard, OverflowRejectedWhenNewFleetCannotHoldAShardsBucket) {
  // 64 entries all hash-bucketed into 1 shard of 128: fits. But first fill
  // a 4-shard engine beyond one shard's capacity, then shrink to 1.
  ShardedCamEngine engine(engine_config(4), shard_config());
  const auto words = test_words(200);  // > 128 = single-shard capacity
  fill(engine, words);
  EXPECT_THROW(engine.reshard(1), SimError);
  // Refused before the fleet was replaced: nothing moved, nothing lost.
  EXPECT_EQ(engine.shard_count(), 4u);
  expect_membership(engine, words);
}

class ReshardPairTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

// Any old -> new shard count, including into and out of the 1-shard
// pass-through, between counts that share no factor, and onto the same
// count: every valid entry moves, and each new shard re-appends its bucket
// in the old shard-major, address-minor order. Invalidated entries leave
// holes that compact away, and a duplicated key keeps its first copy first,
// so each key's global address is its new shard's base plus its rank in
// that bucket.
TEST_P(ReshardPairTest, MembershipAndRoutingSurvive) {
  const auto [from, to] = GetParam();
  ShardedCamEngine engine(engine_config(from), shard_config());
  const auto words = test_words(96);
  fill(engine, words);

  CamDriver drv(engine);
  std::vector<cam::Word> gone;
  for (const std::size_t i : {5u, 17u, 40u, 77u}) {
    const auto res = drv.search(words[i]);
    ASSERT_TRUE(res.hit) << "key " << words[i];
    drv.invalidate_at(res.global_address);
    gone.push_back(words[i]);
  }
  const std::vector<cam::Word> dups = {words[0], words[9], words[60]};
  ASSERT_EQ(drv.store(dups), dups.size());
  settle(engine);

  std::vector<cam::Word> before;  // shard-major, address-minor
  for (unsigned s = 0; s < from; ++s) {
    for (const fault::EntryState& e : engine.shard(s).logical_entries()) {
      if (e.valid) before.push_back(e.stored);
    }
  }
  ASSERT_EQ(before.size(), words.size() - gone.size() + dups.size());

  const auto report = engine.reshard(to);
  EXPECT_EQ(report.old_shards, from);
  EXPECT_EQ(report.new_shards, to);
  EXPECT_EQ(report.entries_moved, before.size());
  EXPECT_EQ(engine.shard_count(), to);
  EXPECT_EQ(engine.capacity(), to * 128u);

  std::vector<std::vector<cam::Word>> buckets(to);
  for (const cam::Word w : before) buckets[engine.shard_of(w)].push_back(w);
  for (const cam::Word w : words) {
    const auto res = drv.search(w);
    if (std::find(gone.begin(), gone.end(), w) != gone.end()) {
      EXPECT_FALSE(res.hit) << "invalidated key " << w << " came back";
      continue;
    }
    ASSERT_TRUE(res.hit) << "key " << w;
    const unsigned t = engine.shard_of(w);
    EXPECT_EQ(res.shard, t) << "key " << w;
    const auto& bucket = buckets[t];
    const auto rank =
        static_cast<unsigned>(std::find(bucket.begin(), bucket.end(), w) - bucket.begin());
    EXPECT_EQ(res.global_address, t * 128u + rank) << "key " << w;
  }
  EXPECT_FALSE(drv.search(0xdead0001).hit);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ReshardPairTest,
    ::testing::Values(std::make_tuple(1u, 4u), std::make_tuple(2u, 1u),
                      std::make_tuple(3u, 5u), std::make_tuple(8u, 2u),
                      std::make_tuple(4u, 4u)),
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param)) + "_to_" +
             std::to_string(std::get<1>(info.param));
    });

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

// Byte-identical completion streams (full placement: addresses, groups,
// shards) when a quarantine -> rebuild cycle interrupts the trace.
TEST(RecoveryReplay, QuarantineRebuildKeepsStreamByteIdentical) {
  const auto words = test_words(64);
  const RequestTrace trace = search_trace(words);
  const std::size_t half = trace.size() / 2;

  const auto run = [&](bool disturb) {
    ShardedCamEngine engine(engine_config(4), shard_config());
    fill(engine, words);
    CamDriver drv(engine);
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

  EXPECT_EQ(run(false), run(true));
}

// Semantically identical streams (hit/miss/match_count; placement dropped -
// resharding relocates entries by design) when a 4 -> 8 reshard interrupts
// the trace.
TEST(RecoveryReplay, ReshardKeepsStreamSemanticallyIdentical) {
  const auto words = test_words(64);
  const RequestTrace trace = search_trace(words);
  const std::size_t half = trace.size() / 2;

  const auto run = [&](bool disturb) {
    ShardedCamEngine engine(engine_config(4), shard_config());
    fill(engine, words);
    CamDriver drv(engine);
    CompletionStream stream(CompletionStream::Placement::kSemantic);
    drv.replay_trace(trace, stream, 0, half);
    if (disturb) engine.reshard(8);
    drv.replay_trace(trace, stream, half);
    return stream.bytes();
  };

  EXPECT_EQ(run(false), run(true));
}

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


// --- RecoveryTelemetry: what every recovery action tells an operator. ---

/// One line per completion: ticket, then hit / shard_failed / shard per key.
std::string describe(const CamDriver::Completion& c) {
  std::string out = "ticket ";
  out += std::to_string(c.ticket) + ":";
  for (const auto& r : c.results) {
    out += ' ';
    out += std::to_string(r.key) + (r.hit ? "=hit" : "=miss") +
           (r.shard_failed ? "/failed" : "") + "@" + std::to_string(r.shard);
  }
  return out + "\n";
}

/// Submits `beats` 2-key searches over `words` without stepping the engine.
void submit_pairs(CamDriver& drv, const std::vector<cam::Word>& words,
                  std::size_t first, std::size_t beats) {
  for (std::size_t b = 0; b < beats; ++b) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    req.keys = {words[(first + 2 * b) % words.size()],
                words[(first + 2 * b + 1) % words.size()]};
    drv.submit_async(std::move(req));
  }
}

/// The debug dump's history tail (its last four transitions).
std::string history_tail(const ShardedCamEngine& engine) {
  const std::string dump = engine.debug_dump();
  const auto history = dump.find("; history:");
  return history == std::string::npos ? "(none)" : dump.substr(history);
}

std::string drain_completions(CamDriver& drv) {
  drv.drain();
  std::string out;
  while (auto c = drv.try_pop_completion()) out += describe(*c);
  return out;
}

// Every recovery action - a quarantine with searches in flight, a rebuild
// from a snapshot and from a golden shadow, a checkpoint, a reshard with
// searches in flight, a whole-engine restore and a shard restore - leaves
// the same history lines, flight-recorder events, recovery spans and
// counters as the golden file records. The registry holds only the
// engine's own recovery counters: the shards' subtrees name the SIMD
// tier's match kernel. On a mismatch the actual text is written next to
// the test's temp files for review.
TEST(RecoveryTelemetry, TransitionRecordsArePinned) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  telemetry::FlightRecorder recorder;
  telemetry::SpanTracer::Config span_cfg;
  span_cfg.sample_every = 1;
  telemetry::SpanTracer tracer(span_cfg);
  engine.set_flight_recorder(&recorder);
  engine.set_span_tracer(&tracer);

  const auto words = test_words(64);
  fill(engine, words);
  fault::Scrubber scrubber(*engine.fault_target(), {});
  scrubber.capture();
  const fault::ShardSnapshot snap1 = engine.snapshot_shard(1);

  std::string out = "-- quarantine with searches in flight\n";
  CamDriver drv(engine);
  submit_pairs(drv, words, 0, 6);
  engine.step();
  engine.quarantine_shard(1);
  out += drain_completions(drv);
  settle(engine);

  engine.rebuild_shard(1, snap1);
  engine.quarantine_shard(2);
  engine.rebuild_shard(2, scrubber);
  const auto ckpt = engine.checkpoint();
  out += "-- history after the rebuilds\n" + history_tail(engine) + "\n";

  out += "-- reshard with searches in flight\n";
  submit_pairs(drv, words, 20, 6);
  engine.step();
  const auto report = engine.reshard(6);
  out += drain_completions(drv);
  settle(engine);
  out += "report: " + std::to_string(report.old_shards) + " -> " +
         std::to_string(report.new_shards) + ", " +
         std::to_string(report.entries_moved) + " moved, " +
         std::to_string(report.pause_cycles) + " pause cycles\n";

  engine.restore(ckpt);
  engine.restore_shard(0, ckpt.shard_snaps[0]);
  out += "-- history after the restores\n" + history_tail(engine) + "\n";

  out += "-- recovery spans\n";
  for (const auto& span : tracer.finished_spans()) {
    bool recovery = span.name.rfind("engine.", 0) == 0;
    for (const auto& [key, value] : span.args) recovery |= key == "quarantined";
    if (!recovery) continue;
    out += span.name + " track " + std::to_string(span.track) + " @" +
           std::to_string(span.start) + ".." + std::to_string(span.end);
    for (const auto& [key, value] : span.args) {
      out += " " + key + "=" + std::to_string(value);
    }
    out += "\n";
  }

  telemetry::MetricRegistry all;
  engine.record_telemetry(all, "engine");
  telemetry::MetricRegistry registry;
  for (const char* name : {"engine.quarantine_events", "engine.rebuild_events",
                           "engine.reshard_events", "engine.reshard.entries_moved",
                           "engine.reshard.pause_cycles"}) {
    registry.counter(name).update_to(all.find_counter(name)->value());
  }
  registry.gauge("engine.quarantined_shards")
      .set(all.find_gauge("engine.quarantined_shards")->value());
  out += "-- black box\n" +
         recorder.dump_json(engine.stats().cycles, "pin", &registry, &tracer) + "\n";

  const std::string golden =
      read_file(std::string(DSPCAM_GOLDEN_DIR) + "/recovery_telemetry.txt");
  if (out != golden) {
    const std::string actual = ::testing::TempDir() + "recovery_telemetry.actual.txt";
    std::ofstream(actual, std::ios::trunc) << out;
    ADD_FAILURE() << "recovery telemetry diverged from the golden file; actual "
                     "text in " << actual;
  }
  expect_membership(engine, words);
}

}  // namespace
}  // namespace dspcam::system
