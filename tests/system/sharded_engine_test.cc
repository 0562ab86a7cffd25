#include "src/system/sharded_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/cam/mask.h"
#include "src/cam/reference_cam.h"
#include "src/common/error.h"
#include "src/common/random.h"
#include "src/system/driver.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"

namespace dspcam::system {
namespace {

CamSystem::Config shard_config(unsigned groups = 1) {
  CamSystem::Config cfg;
  cfg.unit.block.cell.data_width = 32;
  cfg.unit.block.block_size = 32;
  cfg.unit.block.bus_width = 512;
  cfg.unit.unit_size = 4;  // 128 entries
  cfg.unit.bus_width = 512;
  cfg.unit.initial_groups = groups;
  cfg.request_fifo_depth = 64;
  cfg.response_fifo_depth = 64;
  cfg.ack_fifo_depth = 64;
  return cfg;
}

ShardedCamEngine::Config engine_config(unsigned shards) {
  ShardedCamEngine::Config cfg;
  cfg.shards = shards;
  cfg.partition = ShardedCamEngine::Partition::kHash;
  cfg.credits_per_shard = 1u << 20;  // never the binding constraint here
  return cfg;
}

// --- S = 1: the engine must be a bit- and cycle-exact pass-through. ---

// Drives the bare CamSystem and a 1-shard engine with the identical
// randomized op stream, cycle by cycle: every submit must be accepted or
// refused identically, and every response/ack must appear on the SAME cycle
// with the SAME payload.
TEST(ShardedCamEngine, SingleShardIsCycleExactPassThrough) {
  CamSystem bare(shard_config());
  ShardedCamEngine engine(engine_config(1), shard_config());
  const unsigned capacity = bare.capacity();

  unsigned cycle = 0;
  const auto step_and_compare = [&] {
    bare.step();
    engine.step();
    ++cycle;

    const auto bare_resp = bare.try_pop_response();
    const auto engine_resp = engine.try_pop_response();
    ASSERT_EQ(bare_resp.has_value(), engine_resp.has_value())
        << "response timing diverged at cycle " << cycle;
    if (bare_resp.has_value()) {
      ASSERT_EQ(bare_resp->seq, engine_resp->seq);
      ASSERT_EQ(bare_resp->results.size(), engine_resp->results.size());
      for (std::size_t i = 0; i < bare_resp->results.size(); ++i) {
        const auto& b = bare_resp->results[i];
        const auto& e = engine_resp->results[i];
        ASSERT_EQ(b.key, e.key) << "cycle " << cycle;
        ASSERT_EQ(b.hit, e.hit) << "cycle " << cycle;
        ASSERT_EQ(b.global_address, e.global_address) << "cycle " << cycle;
        ASSERT_EQ(b.match_count, e.match_count) << "cycle " << cycle;
        ASSERT_EQ(e.shard, 0u);
      }
    }

    const auto bare_ack = bare.try_pop_ack();
    const auto engine_ack = engine.try_pop_ack();
    ASSERT_EQ(bare_ack.has_value(), engine_ack.has_value())
        << "ack timing diverged at cycle " << cycle;
    if (bare_ack.has_value()) {
      ASSERT_EQ(bare_ack->seq, engine_ack->seq);
      ASSERT_EQ(bare_ack->words_written, engine_ack->words_written);
      ASSERT_EQ(bare_ack->unit_full, engine_ack->unit_full);
    }
  };

  Rng rng(20250806);
  std::uint64_t seq = 1;
  while (cycle < 10000) {
    if (rng.next_bool(0.6)) {
      cam::UnitRequest req;
      req.seq = seq++;
      const double dice = rng.next_double();
      if (dice < 0.15) {
        req.op = cam::OpKind::kUpdate;
        const unsigned n = 1 + static_cast<unsigned>(rng.next_below(16));
        for (unsigned i = 0; i < n; ++i) req.words.push_back(rng.next_bits(10));
      } else if (dice < 0.25) {
        req.op = cam::OpKind::kUpdate;
        req.address = static_cast<std::uint32_t>(rng.next_below(capacity));
        req.words = {rng.next_bits(10)};
      } else if (dice < 0.30) {
        req.op = cam::OpKind::kInvalidate;
        req.address = static_cast<std::uint32_t>(rng.next_below(capacity));
      } else if (dice < 0.32) {
        // Resets are fenced: the engine refuses them while completions are
        // outstanding (a reset beat would flush in-flight searches in the
        // unit pipeline). Quiesce both systems, reset both, settle both -
        // comparing outputs on every intervening cycle.
        req.op = cam::OpKind::kReset;
        while (!bare.idle() || !engine.idle()) {
          step_and_compare();
          if (HasFatalFailure()) return;
        }
        ASSERT_TRUE(bare.try_submit(req));
        ASSERT_TRUE(engine.try_submit(req));
        do {
          step_and_compare();
          if (HasFatalFailure()) return;
        } while (!bare.idle() || !engine.idle());
        continue;
      } else {
        req.op = cam::OpKind::kSearch;
        req.keys = {rng.next_bits(10)};
      }
      const bool bare_ok = bare.try_submit(req);
      const bool engine_ok = engine.try_submit(req);
      ASSERT_EQ(bare_ok, engine_ok) << "cycle " << cycle;
    }

    step_and_compare();
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(bare.stats().responses, engine.stats().responses);
  EXPECT_EQ(bare.stats().acks, engine.stats().acks);
  EXPECT_EQ(engine.stats().cycles, cycle);
}

// --- S > 1: functional equivalence against the reference model. ---

class ShardCountTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShardCountTest, RandomizedStreamMatchesReference) {
  const unsigned shards = GetParam();
  ShardedCamEngine engine(engine_config(shards), shard_config());
  CamDriver drv(engine);
  // Reference holds the same *contents*; addresses differ (per-shard
  // encoders), so only membership is compared.
  cam::ReferenceCam ref(cam::CamKind::kBinary, 32, engine.capacity());
  const unsigned shard_cap = engine.shard(0).capacity();

  Rng rng(42 + shards);
  unsigned stored = 0;
  const unsigned max_fill = engine.capacity() / 3;  // headroom vs hash skew
  for (int round = 0; round < 400; ++round) {
    if (rng.next_bool(0.3) && stored < max_fill) {
      const unsigned n = 1 + static_cast<unsigned>(rng.next_below(8));
      std::vector<cam::Word> words;
      for (unsigned i = 0; i < n; ++i) words.push_back(rng.next_bits(12));
      const unsigned accepted = drv.store(words);
      ASSERT_EQ(accepted, words.size()) << "no shard may overflow in this test";
      ref.update(words);
      stored += n;
    } else {
      const cam::Word key = rng.next_bits(12);
      const auto got = drv.search(key);
      const auto want = ref.search(key);
      ASSERT_EQ(got.hit, want.hit) << "round " << round << " key " << key;
      if (got.hit) {
        // The answering shard must be the one the partitioner routes to,
        // and the global address must be rebased into its slice.
        ASSERT_EQ(got.shard, engine.shard_of(key));
        ASSERT_EQ(got.global_address / shard_cap, got.shard);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardCountTest, ::testing::Values(2u, 4u, 8u));

// Multi-key beats fan out across shards and reassemble in beat order.
TEST(ShardedCamEngine, WideBeatsKeepPositions) {
  ShardedCamEngine engine(engine_config(4), shard_config(/*groups=*/4));
  CamDriver drv(engine);

  Rng rng(7);
  std::vector<cam::Word> stored(64);
  for (auto& w : stored) w = rng.next_bits(16);
  drv.store(stored);

  std::vector<cam::Word> keys;
  for (unsigned i = 0; i < engine.max_keys_per_beat(); ++i) {
    keys.push_back(i % 2 == 0 ? stored[i % stored.size()] : rng.next_bits(16) | (1ULL << 20));
  }
  const auto results = drv.search_many(keys);
  ASSERT_EQ(results.size(), keys.size());
  std::unordered_set<cam::Word> in_cam(stored.begin(), stored.end());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(results[i].key, keys[i]) << "position " << i;
    EXPECT_EQ(results[i].hit, in_cam.contains(keys[i])) << "position " << i;
  }
}

// Range partitioning keeps contiguous key slices on one shard and
// addressed updates in the matching global address slice.
TEST(ShardedCamEngine, RangePartitionRoutesContiguously) {
  auto cfg = engine_config(4);
  cfg.partition = ShardedCamEngine::Partition::kRange;
  cfg.key_bits = 12;  // keys 0..4095, 1024 per shard
  ShardedCamEngine engine(cfg, shard_config());

  EXPECT_EQ(engine.shard_of(0), 0u);
  EXPECT_EQ(engine.shard_of(1023), 0u);
  EXPECT_EQ(engine.shard_of(1024), 1u);
  EXPECT_EQ(engine.shard_of(4095), 3u);

  CamDriver drv(engine);
  drv.store(std::vector<cam::Word>{5, 1030, 2060, 3090});
  for (const cam::Word key : {5u, 1030u, 2060u, 3090u}) {
    const auto res = drv.search(key);
    EXPECT_TRUE(res.hit) << key;
    EXPECT_EQ(res.shard, engine.shard_of(key)) << key;
  }
  EXPECT_FALSE(drv.search(999).hit);
}

TEST(ShardedCamEngine, ResetClearsEveryShard) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  CamDriver drv(engine);
  Rng rng(11);
  std::vector<cam::Word> words(32);
  for (auto& w : words) w = rng.next_bits(16);
  drv.store(words);
  ASSERT_TRUE(drv.search(words[0]).hit);
  drv.reset();
  for (const auto w : words) EXPECT_FALSE(drv.search(w).hit);
}

TEST(ShardedCamEngine, AddressedUpdateAndInvalidateUseGlobalAddresses) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  CamDriver drv(engine);
  const unsigned shard_cap = engine.shard(0).capacity();

  // To be findable, the slot must sit in the slice of the shard the
  // partitioner routes the key to; the engine refuses any other slot.
  const unsigned s = engine.shard_of(777);
  const std::uint32_t addr = s * shard_cap + 5;
  drv.store_at(addr, 777);
  auto res = drv.search(777);
  ASSERT_TRUE(res.hit);
  EXPECT_EQ(res.global_address, addr);
  EXPECT_EQ(res.shard, s);

  drv.invalidate_at(addr);
  EXPECT_FALSE(drv.search(777).hit);

  EXPECT_THROW(drv.store_at(4 * shard_cap, 1), SimError);
  EXPECT_THROW(drv.store_at((s + 1) % 4 * shard_cap + 5, 777), SimError);
  // Each refusal left the driver as it was: no ticket stays counted, and the
  // same driver still searches and stores.
  EXPECT_EQ(drv.inflight(), 0u);
  EXPECT_FALSE(drv.search(777).hit);
  drv.store_at(addr, 777);
  res = drv.search(777);
  ASSERT_TRUE(res.hit);
  EXPECT_EQ(res.global_address, addr);
}

// A beat the backend refuses by throwing takes no ticket: the driver's
// metrics, spans, request record and ticket numbering are as they were.
TEST(ShardedCamEngine, RefusedBeatLeavesNoTraceInTheDriver) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  CamDriver drv(engine);
  telemetry::MetricRegistry registry;
  telemetry::SpanTracer tracer(telemetry::SpanTracer::Config{.sample_every = 1});
  sim::RequestTrace trace;
  drv.attach_telemetry(&registry, &tracer);
  drv.set_request_trace(&trace);
  const unsigned shard_cap = engine.shard(0).capacity();
  drv.store_at(engine.shard_of(5) * shard_cap, 5);
  const std::uint64_t submitted = registry.counter("driver.submitted").value();
  const std::uint64_t started = tracer.started();
  const std::size_t recorded = trace.size();

  EXPECT_THROW(drv.store_at((engine.shard_of(6) + 1) % 4 * shard_cap, 6), SimError);
  EXPECT_EQ(drv.inflight(), 0u);
  EXPECT_EQ(registry.counter("driver.submitted").value(), submitted);
  EXPECT_EQ(tracer.started(), started);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(trace.size(), recorded);

  cam::UnitRequest search;
  search.op = cam::OpKind::kSearch;
  search.keys = {5};
  EXPECT_EQ(drv.submit_async(search), 2u) << "the refused beat's ticket is reused";
  drv.drain();
  const auto done = drv.try_pop_completion();
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->results[0].hit);
  EXPECT_EQ(tracer.open_count(), 0u);
}

// Binary store_at(8 i, key_i) over four shards: every write whose key
// partitions off the addressed shard is refused, so a later search can never
// miss a stored key. Stored on their owning shards instead, all 64 are found.
TEST(ShardedCamEngine, OffShardAddressedWritesAreRefused) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  CamDriver drv(engine);
  const unsigned shard_cap = engine.shard(0).capacity();
  std::vector<cam::Word> keys(64);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 1000 + 7919 * i;

  unsigned refused = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto address = static_cast<std::uint32_t>(8 * i);
    if (engine.shard_of(keys[i]) == address / shard_cap) {
      drv.store_at(address, keys[i]);
      continue;
    }
    const std::string before = engine.debug_dump();
    EXPECT_THROW(drv.store_at(address, keys[i]), SimError) << "key " << keys[i];
    EXPECT_EQ(engine.debug_dump(), before) << "a refused write changed the engine";
    EXPECT_EQ(drv.inflight(), 0u);
    ++refused;
  }
  EXPECT_GT(refused, 32u);

  // Odd slots of each key's own shard; the 8 i slots above are even.
  std::vector<unsigned> next(4);
  for (const cam::Word key : keys) {
    const unsigned owner = engine.shard_of(key);
    drv.store_at(owner * shard_cap + 1 + 2 * next[owner]++, key);
  }
  unsigned found = 0;
  for (const cam::Word key : keys) {
    const auto res = drv.search(key);
    found += res.hit && res.shard == engine.shard_of(key);
  }
  EXPECT_EQ(found, keys.size());
}

// A masked entry covers keys of many shards but is stored on one, so ternary
// and range cells are refused at S > 1 under either partitioner.
TEST(ShardedCamEngine, MaskedCellsAreRefusedAcrossShards) {
  for (const cam::CamKind kind : {cam::CamKind::kTernary, cam::CamKind::kRange}) {
    CamSystem::Config sc = shard_config();
    sc.unit.block.cell.kind = kind;
    for (const auto partition :
         {ShardedCamEngine::Partition::kHash, ShardedCamEngine::Partition::kRange}) {
      for (const unsigned shards : {2u, 4u}) {
        ShardedCamEngine::Config cfg = engine_config(shards);
        cfg.partition = partition;
        EXPECT_THROW(ShardedCamEngine(cfg, sc), ConfigError)
            << cam::to_string(kind) << " x" << shards;
      }
    }
    EXPECT_NO_THROW(ShardedCamEngine(engine_config(1), sc)) << cam::to_string(kind);
  }
}

// Neither reshard() nor restore() can take a masked engine past one shard,
// and reshard() refuses it outright; each refusal leaves it answering as
// before.
TEST(ShardedCamEngine, MaskedEngineStaysOnOneShard) {
  CamSystem::Config sc = shard_config();
  sc.unit.block.cell.kind = cam::CamKind::kTernary;
  ShardedCamEngine engine(engine_config(1), sc);
  CamDriver drv(engine);
  // One entry with 8 don't-care low bits: it covers 0x1200..0x12ff.
  drv.store(std::vector<cam::Word>{0x1234}, std::vector<std::uint64_t>{cam::tcam_mask(32, 0xFF)});
  const auto hits = [&] {
    std::vector<bool> out;
    for (cam::Word k = 0x1100; k < 0x1400; k += 0x11) out.push_back(drv.search(k).hit);
    return out;
  };
  const std::vector<bool> before = hits();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], ((0x1100 + 0x11 * i) >> 8) == 0x12) << "key index " << i;
  }

  // reshard(1) too: its re-append writes words, never masks.
  for (const unsigned count : {4u, 1u}) {
    EXPECT_THROW(engine.reshard(count), ConfigError) << count;
    EXPECT_EQ(engine.shard_count(), 1u);
    EXPECT_EQ(hits(), before);
  }

  while (!engine.idle()) engine.step();
  ShardedCamEngine::EngineCheckpoint ckpt = engine.checkpoint();
  fault::ShardSnapshot second = ckpt.shard_snaps.front();
  second.shard = 1;
  second.seal();
  ckpt.shards = 2;
  ckpt.shard_snaps.push_back(second);
  EXPECT_THROW(engine.restore(ckpt), ConfigError);
  EXPECT_EQ(engine.shard_count(), 1u);
  EXPECT_EQ(hits(), before);
}

// With the masked table on one shard the engine is a pass-through: a 1-shard
// ternary engine gives the bare CamSystem's answers, through append beats
// wider than a bus beat whose masks change word to word.
TEST(ShardedCamEngine, OneShardTernaryEngineAnswersAsCamSystem) {
  CamSystem::Config sc = shard_config();
  sc.unit.block.cell.kind = cam::CamKind::kTernary;
  CamSystem bare(sc);
  ShardedCamEngine engine(engine_config(1), sc);
  CamDriver want(bare);
  CamDriver got(engine);
  ASSERT_EQ(bare.words_per_beat(), 16u);

  Rng rng(0x7CA);
  unsigned hits = 0;
  for (unsigned round = 0; round < 5; ++round) {
    std::vector<cam::Word> words;
    std::vector<std::uint64_t> masks;
    for (unsigned i = 0; i < 20; ++i) {
      words.push_back(rng.next_bits(12));
      // The second sub-request's words care about fewer bits than any of
      // the first's, so a mask taken from the wrong position shows.
      masks.push_back(cam::tcam_mask(32, i >= 16 ? 0xF : rng.next_bits(2) << (i % 8)));
    }
    // The engine takes all 20 words as one beat and splits it into two
    // sub-requests; the bare system takes them a bus beat at a time.
    cam::UnitRequest append;
    append.op = cam::OpKind::kUpdate;
    append.words.assign(words.begin(), words.end());
    append.masks = masks;
    got.submit_async(append);
    got.drain();
    const auto appended = got.try_pop_completion();
    ASSERT_TRUE(appended.has_value());
    EXPECT_EQ(appended->words_written, want.store(words, masks));
    const auto slot = static_cast<std::uint32_t>(rng.next_below(bare.capacity()));
    const cam::Word word = rng.next_bits(12);
    const std::uint64_t mask = cam::tcam_mask(32, rng.next_bits(4));
    EXPECT_EQ(got.store_at(slot, word, mask).words_written,
              want.store_at(slot, word, mask).words_written);
    const auto hole = static_cast<std::uint32_t>(rng.next_below(bare.capacity()));
    got.invalidate_at(hole);
    want.invalidate_at(hole);

    std::vector<cam::Word> keys(40);  // half near a stored word, half anywhere
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = i % 2 == 0 ? words[i / 2] ^ rng.next_bits(4) : rng.next_bits(12);
    }
    const auto a = want.search_stream(keys);
    const auto b = got.search_stream(keys);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(b[i].hit, a[i].hit) << "round " << round << " key " << keys[i];
      EXPECT_EQ(b[i].global_address, a[i].global_address) << "key " << keys[i];
      EXPECT_EQ(b[i].match_count, a[i].match_count) << "key " << keys[i];
      hits += a[i].hit;
    }
  }
  EXPECT_GT(hits, 20u) << "too few hits to compare";
}

// An append's ack ORs unit_full over the shards: a word a full shard drops
// is reported even when another shard wrote its word in the same beat.
TEST(ShardedCamEngine, AppendAckOrsUnitFullAcrossShards) {
  ShardedCamEngine engine(engine_config(2), shard_config());
  CamDriver drv(engine);
  const unsigned shard_cap = engine.shard(0).capacity();
  std::vector<cam::Word> on[2];
  for (cam::Word w = 1; on[0].size() <= shard_cap || on[1].empty(); ++w) {
    on[engine.shard_of(w)].push_back(w);
  }
  ASSERT_EQ(drv.store(std::span(on[0]).first(shard_cap)), shard_cap);

  cam::UnitRequest beat;
  beat.op = cam::OpKind::kUpdate;
  beat.words = {on[0][shard_cap], on[1][0]};
  const CamDriver::Ticket ticket = drv.submit_async(beat);
  drv.drain();
  const auto done = drv.try_pop_completion();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->ticket, ticket);
  EXPECT_EQ(done->words_written, 1u);
  EXPECT_TRUE(done->full) << "shard 0 dropped its word";
  EXPECT_TRUE(drv.search(on[1][0]).hit);
  EXPECT_FALSE(drv.search(on[0][shard_cap]).hit);
}

TEST(ShardedCamEngine, AggregatesStatsAndResources) {
  ShardedCamEngine engine(engine_config(4), shard_config());
  const CamSystem solo(shard_config());
  EXPECT_EQ(engine.capacity(), 4 * solo.capacity());
  EXPECT_EQ(engine.words_per_beat(), 4 * solo.words_per_beat());
  EXPECT_GE(engine.resources().dsps, 4 * solo.resources().dsps);
  EXPECT_GT(engine.resources().luts, 4 * solo.resources().luts)
      << "steering overhead must be accounted";

  CamDriver drv(engine);
  drv.store(std::vector<cam::Word>{1, 2, 3, 4, 5, 6, 7, 8});
  drv.search_stream(std::vector<cam::Word>{1, 2, 3, 4, 5, 6, 7, 8});
  const auto stats = engine.stats();
  EXPECT_GT(stats.issued, 0u);
  EXPECT_EQ(stats.cycles, drv.cycles());
  EXPECT_GT(stats.responses, 0u);
}

TEST(ShardedCamEngine, HeterogeneousShardsRejected) {
  ShardedCamEngine::Config cfg = engine_config(2);
  unsigned calls = 0;
  EXPECT_THROW(ShardedCamEngine(cfg,
                                [&calls](unsigned) -> std::unique_ptr<CamBackend> {
                                  auto c = shard_config();
                                  if (calls++ == 1) c.unit.block.cell.data_width = 16;
                                  return std::make_unique<CamSystem>(c);
                                }),
               ConfigError);
}

// --- Collection runs once per engine cycle. ---

/// Per-shard poll counters. A collection sweep pops until the first empty
/// pop, so the empty pops count the sweeps.
struct PollCounts {
  std::uint64_t hints = 0;        ///< has_output() calls.
  std::uint64_t hints_ready = 0;  ///< ... that answered true.
  std::uint64_t response_calls = 0;
  std::uint64_t response_sweeps = 0;
  std::uint64_t ack_calls = 0;
  std::uint64_t ack_sweeps = 0;
};

/// A CamSystem shard that counts how the engine polls it, and can hand the
/// engine one response it never asked for. Its output hint is the inner
/// system's, and true while a stray response is pending.
class CountingShard final : public CamBackend {
 public:
  CountingShard(const CamSystem::Config& cfg, PollCounts& counts)
      : inner_(cfg), counts_(&counts) {}

  bool inject_response = false;  ///< Next response poll returns a stray response.

  unsigned data_width() const override { return inner_.data_width(); }
  cam::CamKind kind() const override { return inner_.kind(); }
  unsigned capacity() const override { return inner_.capacity(); }
  unsigned words_per_beat() const override { return inner_.words_per_beat(); }
  unsigned max_keys_per_beat() const override { return inner_.max_keys_per_beat(); }
  unsigned max_groups() const override { return inner_.max_groups(); }
  void configure_groups(unsigned m) override { inner_.configure_groups(m); }
  bool try_submit(cam::UnitRequest request) override {
    return inner_.try_submit(std::move(request));
  }
  std::optional<cam::UnitResponse> try_pop_response() override {
    ++counts_->response_calls;
    if (inject_response) {
      inject_response = false;
      cam::UnitResponse stray;
      stray.results.resize(1);
      return stray;
    }
    auto resp = inner_.try_pop_response();
    if (!resp.has_value()) ++counts_->response_sweeps;
    return resp;
  }
  std::optional<cam::UnitUpdateAck> try_pop_ack() override {
    ++counts_->ack_calls;
    auto ack = inner_.try_pop_ack();
    if (!ack.has_value()) ++counts_->ack_sweeps;
    return ack;
  }
  bool has_output() const override {
    ++counts_->hints;
    const bool ready = inject_response || inner_.has_output();
    counts_->hints_ready += ready;
    return ready;
  }
  bool request_full() const override { return inner_.request_full(); }
  std::size_t pending_requests() const override { return inner_.pending_requests(); }
  void step() override { inner_.step(); }
  bool idle() const override { return inner_.idle(); }
  Stats stats() const override { return inner_.stats(); }
  model::ResourceUsage resources() const override { return inner_.resources(); }

 private:
  CamSystem inner_;
  PollCounts* counts_;
};

/// An S-shard engine over CountingShards; `shards[s]` borrows shard s.
struct CountedEngine {
  explicit CountedEngine(unsigned s) : counts(s) {
    engine = std::make_unique<ShardedCamEngine>(
        engine_config(s), [this](unsigned i) -> std::unique_ptr<CamBackend> {
          auto shard = std::make_unique<CountingShard>(shard_config(), counts[i]);
          shards.push_back(shard.get());
          return shard;
        });
  }
  std::vector<PollCounts> counts;
  std::vector<CountingShard*> shards;
  std::unique_ptr<ShardedCamEngine> engine;
};

// Shards emit output only on their own clock edge, so the engine asks each
// live shard once per step() whether output is ready and sweeps it once if
// so; a shard with nothing ready gets no pop. Host pops are reorder-buffer
// pops that never reach a shard - however often the host polls.
TEST(ShardedCamEngine, CollectsEachLiveShardOncePerStep) {
  CountedEngine ce(4);
  ShardedCamEngine& engine = *ce.engine;
  Rng rng(404);
  std::uint64_t seq = 1;
  std::size_t popped = 0;
  std::size_t idle_sweeps_skipped = 0;
  for (unsigned cycle = 0; cycle < 600; ++cycle) {
    if (cycle == 300) engine.quarantine_shard(2);
    if (rng.next_bool(0.7)) {
      cam::UnitRequest req;
      req.seq = seq++;
      if (rng.next_bool(0.2)) {
        req.op = cam::OpKind::kUpdate;
        req.words = {rng.next_bits(12), rng.next_bits(12)};
      } else {
        req.op = cam::OpKind::kSearch;
        for (unsigned k = 0; k < 4; ++k) req.keys.push_back(rng.next_bits(12));
      }
      (void)engine.try_submit(std::move(req));
    }
    const std::vector<PollCounts> before = ce.counts;
    engine.step();
    for (unsigned s = 0; s < 4; ++s) {
      const bool live = !engine.shard_quarantined(s);
      ASSERT_EQ(ce.counts[s].hints - before[s].hints, live ? 1u : 0u)
          << "shard " << s << " cycle " << cycle;
      const std::uint64_t sweeps = ce.counts[s].hints_ready - before[s].hints_ready;
      idle_sweeps_skipped += live && sweeps == 0;
      ASSERT_EQ(ce.counts[s].response_sweeps - before[s].response_sweeps, sweeps)
          << "shard " << s << " cycle " << cycle;
      ASSERT_EQ(ce.counts[s].ack_sweeps - before[s].ack_sweeps, sweeps)
          << "shard " << s << " cycle " << cycle;
      if (sweeps == 0) {
        ASSERT_EQ(ce.counts[s].response_calls, before[s].response_calls)
            << "shard " << s << " had nothing ready but was popped at cycle " << cycle;
        ASSERT_EQ(ce.counts[s].ack_calls, before[s].ack_calls)
            << "shard " << s << " had nothing ready but was popped at cycle " << cycle;
      }
    }
    const std::vector<PollCounts> after_step = ce.counts;
    for (unsigned poll = 0; poll < 3; ++poll) {
      while (engine.try_pop_response()) ++popped;
      while (engine.try_pop_ack()) ++popped;
    }
    for (unsigned s = 0; s < 4; ++s) {
      ASSERT_EQ(ce.counts[s].response_calls, after_step[s].response_calls)
          << "host pop reached shard " << s << " at cycle " << cycle;
      ASSERT_EQ(ce.counts[s].ack_calls, after_step[s].ack_calls)
          << "host pop reached shard " << s << " at cycle " << cycle;
    }
  }
  EXPECT_GT(popped, 300u);
  EXPECT_GT(idle_sweeps_skipped, 100u) << "the stream never left a live shard idle";
}

TEST(ShardedCamEngine, StrayShardResponseStillThrowsFromStep) {
  CountedEngine ce(4);
  ce.engine->step();
  EXPECT_EQ(ce.counts[1].response_calls, 0u) << "an idle shard was popped";
  ce.shards[1]->inject_response = true;  // a stray output makes the hint true
  EXPECT_THROW(ce.engine->step(), SimError);
}

// --- The sub-operation stream the engine hands its shards. ---

/// A CamSystem shard that logs every try_submit() it receives: shard, its
/// own cycle, op, seq, payload and address.
class RecordingShard final : public CamBackend {
 public:
  RecordingShard(const CamSystem::Config& cfg, unsigned id, std::vector<std::string>& log)
      : inner_(cfg), id_(id), log_(&log) {}

  unsigned data_width() const override { return inner_.data_width(); }
  cam::CamKind kind() const override { return inner_.kind(); }
  unsigned capacity() const override { return inner_.capacity(); }
  unsigned words_per_beat() const override { return inner_.words_per_beat(); }
  unsigned max_keys_per_beat() const override { return inner_.max_keys_per_beat(); }
  unsigned max_groups() const override { return inner_.max_groups(); }
  void configure_groups(unsigned m) override { inner_.configure_groups(m); }
  bool try_submit(cam::UnitRequest request) override {
    // Built with +=: GCC 12 warns (-Wrestrict) on "literal" + std::string.
    std::string line = "s";
    line += std::to_string(id_);
    line += " @";
    line += std::to_string(cycle_);
    line += ' ';
    line += cam::to_string(request.op);
    line += " seq=";
    line += std::to_string(request.seq);
    const auto list = [&](const char* name, const auto& values) {
      if (values.empty()) return;
      line += ' ';
      line += name;
      line += '=';
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0) line += ',';
        line += std::to_string(values[i]);
      }
    };
    list("keys", request.keys);
    list("words", request.words);
    list("masks", request.masks);
    if (request.address.has_value()) {
      line += " addr=";
      line += std::to_string(*request.address);
    }
    const bool ok = inner_.try_submit(std::move(request));
    if (!ok) line += " REFUSED";
    log_->push_back(line);
    return ok;
  }
  std::optional<cam::UnitResponse> try_pop_response() override {
    return inner_.try_pop_response();
  }
  std::optional<cam::UnitUpdateAck> try_pop_ack() override { return inner_.try_pop_ack(); }
  bool request_full() const override { return inner_.request_full(); }
  std::size_t pending_requests() const override { return inner_.pending_requests(); }
  void step() override {
    inner_.step();
    ++cycle_;
  }
  bool idle() const override { return inner_.idle(); }
  Stats stats() const override { return inner_.stats(); }
  model::ResourceUsage resources() const override { return inner_.resources(); }

 private:
  CamSystem inner_;
  unsigned id_;
  std::uint64_t cycle_ = 0;
  std::vector<std::string>* log_;
};

// Golden sub-operation stream for a mixed program on 3 binary shards (2 keys
// and 4 words per sub-request, 2-deep request FIFOs, 3 credits): which shard
// gets which sub-request, in what order, at what cycle and with what payload.
TEST(ShardedCamEngine, SubOperationStreamIsPinned) {
  CamSystem::Config sc;
  sc.unit.block.cell.data_width = 16;
  sc.unit.block.block_size = 8;
  sc.unit.block.bus_width = 64;
  sc.unit.unit_size = 4;
  sc.unit.bus_width = 64;
  sc.unit.initial_groups = 2;
  sc.request_fifo_depth = 2;
  ShardedCamEngine::Config ec = engine_config(3);
  ec.credits_per_shard = 3;
  std::vector<std::string> log;
  ShardedCamEngine engine(ec, [&](unsigned s) -> std::unique_ptr<CamBackend> {
    return std::make_unique<RecordingShard>(sc, s, log);
  });
  ASSERT_EQ(engine.max_keys_per_beat(), 6u);
  ASSERT_EQ(engine.shard(0).words_per_beat(), 4u);
  ASSERT_EQ(engine.shard(0).capacity(), 16u);

  std::uint64_t seq = 1;
  const auto submit = [&](cam::UnitRequest req) {
    req.seq = seq++;
    return engine.try_submit(std::move(req));
  };
  const auto drain = [&] {
    for (unsigned guard = 0; !engine.idle(); ++guard) {
      ASSERT_LT(guard, 1000u);
      engine.step();
    }
    while (engine.try_pop_response() || engine.try_pop_ack()) {
    }
  };
  const auto search = [](std::vector<cam::Word> keys) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    req.keys.assign(keys.begin(), keys.end());
    return req;
  };

  // An append: 16 words, more than a bus beat to some shards.
  cam::UnitRequest append;
  append.op = cam::OpKind::kUpdate;
  for (unsigned i = 0; i < 16; ++i) append.words.push_back(100 + 7 * i);
  ASSERT_TRUE(submit(append));
  drain();
  // More keys per shard than a sub-request holds, interleaved across shards.
  ASSERT_TRUE(submit(search({100, 107, 114, 121, 128, 135, 142, 149, 156})));
  drain();
  // An addressed update spanning three sub-beats of shard 1, of words that
  // partition to shard 1.
  cam::UnitRequest addressed;
  addressed.op = cam::OpKind::kUpdate;
  addressed.address = 16 + 3;
  for (cam::Word w = 900; addressed.words.size() < 10; ++w) {
    if (engine.shard_of(w) == 1) addressed.words.push_back(w);
  }
  ASSERT_TRUE(submit(addressed));
  drain();

  // Refused for credits: single-key searches to one shard until a beat is
  // refused. The refused beat issues nothing, and takes no reorder-buffer
  // entry and no credit.
  bool refused = false;
  for (unsigned i = 0; i < 8 && !refused; ++i) {
    const std::size_t logged = log.size();
    const std::string before = engine.debug_dump();
    refused = !submit(search({121}));
    if (refused) {
      EXPECT_EQ(log.size(), logged) << "a refused beat issued a sub-request";
      EXPECT_EQ(engine.debug_dump(), before) << "a refused beat changed engine state";
    }
    engine.step();
  }
  EXPECT_TRUE(refused);
  drain();

  // A quarantined shard receives nothing; its keys and words settle.
  engine.quarantine_shard(2);
  ASSERT_TRUE(submit(search({100, 107, 114, 121, 128, 135})));
  drain();
  ASSERT_TRUE(submit(append));
  drain();
  cam::UnitRequest invalidate;
  invalidate.op = cam::OpKind::kInvalidate;
  invalidate.address = 5;
  ASSERT_TRUE(submit(invalidate));
  drain();
  cam::UnitRequest reset;
  reset.op = cam::OpKind::kReset;
  ASSERT_TRUE(submit(reset));
  drain();

  const std::vector<std::string> golden = {
      "s0 @0 update seq=1 words=100,142,149,170",
      "s1 @0 update seq=1 words=107,114,135,163",
      "s2 @0 update seq=1 words=121,128,156,177",
      "s2 @0 update seq=1 words=184,205",
      "s1 @0 update seq=1 words=191",
      "s0 @0 update seq=1 words=198",
      "s0 @8 search seq=2 keys=100,142",
      "s1 @8 search seq=2 keys=107,114",
      "s2 @8 search seq=2 keys=121,128",
      "s1 @8 search seq=2 keys=135",
      "s0 @8 search seq=2 keys=149",
      "s2 @8 search seq=2 keys=156",
      "s1 @17 update seq=3 words=902,903,904,905 addr=3",
      "s1 @17 update seq=3 words=912,915,922,924 addr=7",
      "s1 @18 update seq=3 words=928,933 addr=11",
      "s2 @26 search seq=4 keys=121",
      "s2 @27 search seq=5 keys=121",
      "s2 @28 search seq=6 keys=121",
      "s0 @36 search seq=8 keys=100",
      "s1 @36 search seq=8 keys=107,114",
      "s1 @36 search seq=8 keys=135",
      "s0 @45 update seq=9 words=100,142,149,170",
      "s1 @45 update seq=9 words=107,114,135,163",
      "s1 @45 update seq=9 words=191",
      "s0 @45 update seq=9 words=198",
      "s0 @53 invalidate seq=10 addr=5",
      "s0 @60 reset seq=11",
      "s1 @60 reset seq=11",
  };
  std::string got;
  for (const std::string& line : log) {
    got += "      \"";
    got += line;
    got += "\",\n";
  }
  EXPECT_EQ(log, golden) << got;
}

// --- Fast vs reference evaluation, observed at the engine boundary. ---

CamSystem::Config small_shard_config(cam::EvalMode mode = cam::EvalMode::kFast) {
  CamSystem::Config cfg;
  cfg.unit.block.cell.data_width = 32;
  cfg.unit.block.block_size = 16;
  cfg.unit.block.bus_width = 128;
  cfg.unit.eval_mode = mode;
  cfg.unit.unit_size = 4;
  cfg.unit.bus_width = 128;
  return cfg;
}

/// One observable event: its payload, the cycle the host popped it on, and
/// the cycle its beat completed.
struct Event {
  std::uint64_t cycle = 0;
  std::uint64_t ready = 0;
  bool is_response = false;
  std::uint64_t seq = 0;
  std::vector<std::uint64_t> payload;

  bool operator==(const Event&) const = default;
};

/// A fixed pseudo-random stream (35% update, 55% search, 10% idle beats, up
/// to two per host turn) into an engine of `shards` shards (4, hash by
/// default). The host turns come every 1..13 cycles, so pop cycles and
/// completion cycles differ and both are recorded.
std::vector<Event> run_eval_mode_trace(
    cam::EvalMode mode, unsigned shards = 4,
    ShardedCamEngine::Partition partition = ShardedCamEngine::Partition::kHash) {
  ShardedCamEngine::Config ec;
  ec.shards = shards;
  ec.partition = partition;
  ec.key_bits = 8;  // the stream's key space; spreads range slices evenly
  ec.credits_per_shard = 64;
  ShardedCamEngine engine(ec, small_shard_config(mode));
  Rng rng(0xCAFE);
  Rng turns(0x1234);
  std::vector<Event> events;
  std::uint64_t seq = 1;
  for (unsigned turn = 0; turn < 700; ++turn) {
    const unsigned beats = static_cast<unsigned>(rng.next_below(3));
    for (unsigned b = 0; b < beats; ++b) {
      const double dice = rng.next_double();
      cam::UnitRequest req;
      if (dice < 0.35) {
        req.op = cam::OpKind::kUpdate;
        const unsigned n = 1 + static_cast<unsigned>(rng.next_below(4));
        for (unsigned i = 0; i < n; ++i) req.words.push_back(rng.next_bits(8));
      } else if (dice < 0.90) {
        req.op = cam::OpKind::kSearch;
        const unsigned nk = 1 + static_cast<unsigned>(rng.next_below(ec.shards));
        for (unsigned i = 0; i < nk; ++i) req.keys.push_back(rng.next_bits(8));
      } else {
        continue;  // idle beat
      }
      req.seq = seq++;
      (void)engine.try_submit(std::move(req));
    }
    const std::uint64_t k = 1 + turns.next_below(13);
    for (std::uint64_t c = 0; c < k; ++c) engine.step();
    while (auto resp = engine.try_pop_response()) {
      Event e{engine.stats().cycles, engine.last_completion_cycle(), true, resp->seq, {}};
      for (const auto& r : resp->results) {
        e.payload.insert(e.payload.end(), {r.key, r.hit ? 1u : 0u, r.global_address,
                                           r.match_count, r.group, r.shard});
      }
      events.push_back(std::move(e));
    }
    while (auto ack = engine.try_pop_ack()) {
      events.push_back({engine.stats().cycles, engine.last_completion_cycle(), false,
                        ack->seq, {ack->words_written, ack->unit_full ? 1u : 0u}});
    }
  }
  return events;
}

// The fast kernel (whichever sweep the build and host selected) stays in
// lockstep with the reference cells through sharding: same payloads, same
// completion cycles, same pop cycles.
TEST(ShardedCamEngine, FastEvalMatchesReferencePerCycle) {
  const auto ref = run_eval_mode_trace(cam::EvalMode::kReference);
  const auto fast = run_eval_mode_trace(cam::EvalMode::kFast);
  ASSERT_GT(ref.size(), 100u) << "trace too quiet to be meaningful";
  ASSERT_EQ(ref.size(), fast.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], fast[i]) << "event " << i << " diverged";
  }
}

/// Fleet shapes for the per-cycle eval-mode comparison: shard count plus
/// partitioner.
struct TraceShape {
  unsigned shards;
  ShardedCamEngine::Partition partition;
};

void PrintTo(const TraceShape& shape, std::ostream* os) {
  *os << shape.shards
      << (shape.partition == ShardedCamEngine::Partition::kHash ? " hash" : " range");
}

class EvalModeShapeTest : public ::testing::TestWithParam<TraceShape> {};

// The same lockstep guarantee across fleet shapes: the 1-shard pass-through,
// odd and wide hash fleets, and range partitioning (contiguous key slices
// instead of hashed placement).
TEST_P(EvalModeShapeTest, FastEvalMatchesReferencePerCycle) {
  const TraceShape shape = GetParam();
  const auto ref =
      run_eval_mode_trace(cam::EvalMode::kReference, shape.shards, shape.partition);
  const auto fast =
      run_eval_mode_trace(cam::EvalMode::kFast, shape.shards, shape.partition);
  ASSERT_GT(ref.size(), 100u) << "trace too quiet to be meaningful";
  ASSERT_EQ(ref.size(), fast.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i], fast[i]) << "event " << i << " diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EvalModeShapeTest,
    ::testing::Values(TraceShape{1, ShardedCamEngine::Partition::kHash},
                      TraceShape{3, ShardedCamEngine::Partition::kHash},
                      TraceShape{8, ShardedCamEngine::Partition::kHash},
                      TraceShape{2, ShardedCamEngine::Partition::kRange},
                      TraceShape{4, ShardedCamEngine::Partition::kRange},
                      TraceShape{8, ShardedCamEngine::Partition::kRange}),
    [](const auto& info) {
      return std::string(info.param.partition == ShardedCamEngine::Partition::kHash
                             ? "hash"
                             : "range") +
             std::to_string(info.param.shards);
    });

// --- drain() is the poll() loop plus a watchdog. ---

/// Bursts of 1..6 random stores and searches through a driver over an
/// engine of `shards` shards with shallow FIFOs (backpressure is part of the
/// run). Between bursts the host either calls drain() or polls by hand until
/// nothing is in flight. Returns every completion field in pop order and the
/// cycle count.
std::pair<std::vector<std::uint64_t>, std::uint64_t> run_bursts(unsigned shards,
                                                                bool use_drain) {
  ShardedCamEngine::Config ec;
  ec.shards = shards;
  ec.credits_per_shard = 32;
  CamSystem::Config sc = small_shard_config();
  sc.request_fifo_depth = 8;
  sc.response_fifo_depth = 8;
  sc.ack_fifo_depth = 8;
  CamDriver drv(std::make_unique<ShardedCamEngine>(ec, sc));

  Rng rng(0xD1CE + shards);
  std::vector<std::uint64_t> digest;
  for (unsigned burst = 0; burst < 40; ++burst) {
    const unsigned n = 1 + static_cast<unsigned>(rng.next_below(6));
    for (unsigned i = 0; i < n; ++i) {
      cam::UnitRequest req;
      if (rng.next_double() < 0.3) {
        req.op = cam::OpKind::kUpdate;
        req.words = {rng.next_bits(8), rng.next_bits(8)};
      } else {
        req.op = cam::OpKind::kSearch;
        req.keys = {rng.next_bits(8), rng.next_bits(8), rng.next_bits(8)};
      }
      drv.submit_async(std::move(req));
    }
    if (use_drain) {
      drv.drain();
    } else {
      while (drv.inflight() > 0) drv.poll();
    }
    while (auto c = drv.try_pop_completion()) {
      digest.insert(digest.end(), {c->ticket, static_cast<std::uint64_t>(c->op),
                                   c->words_written, c->full ? 1u : 0u});
      for (const auto& r : c->results) {
        digest.insert(digest.end(), {r.key, r.hit ? 1u : 0u, r.global_address,
                                     r.match_count, r.shard});
      }
    }
  }
  return {digest, drv.cycles()};
}

class DrainShardTest : public ::testing::TestWithParam<unsigned> {};

// drain() adds no clock of its own: the same completions, in the same order,
// after the same number of cycles as a hand-written poll() loop.
TEST_P(DrainShardTest, DrainMatchesHandPolling) {
  const auto drained = run_bursts(GetParam(), /*use_drain=*/true);
  const auto polled = run_bursts(GetParam(), /*use_drain=*/false);
  ASSERT_GT(drained.first.size(), 400u) << "run too quiet to be meaningful";
  EXPECT_EQ(drained.first, polled.first);
  EXPECT_EQ(drained.second, polled.second);
}

INSTANTIATE_TEST_SUITE_P(Shards, DrainShardTest, ::testing::Values(1u, 2u, 4u, 8u));

// --- The CamBackend clocking defaults the end-to-end bench still overrides. ---

/// Drives `a` with step_many(k) and `b` with k step() calls over the same
/// request stream; both must surface the same outputs on the same cycle.
void expect_step_many_is_repeated_step(CamBackend& a, CamBackend& b) {
  EXPECT_EQ(a.output_horizon(), 0u);
  Rng rng(77);
  std::uint64_t seq = 1;
  std::size_t outputs = 0;
  for (unsigned turn = 0; turn < 200; ++turn) {
    cam::UnitRequest req;
    req.seq = seq++;
    if (rng.next_bool(0.3)) {
      req.op = cam::OpKind::kUpdate;
      req.words = {rng.next_bits(8)};
    } else {
      req.op = cam::OpKind::kSearch;
      req.keys = {rng.next_bits(8)};
    }
    ASSERT_EQ(a.try_submit(req), b.try_submit(req)) << "turn " << turn;
    const std::uint64_t k = 1 + rng.next_below(5);
    a.step_many(k);
    for (std::uint64_t c = 0; c < k; ++c) b.step();
    ASSERT_EQ(a.stats().cycles, b.stats().cycles);
    while (true) {
      const auto ra = a.try_pop_response();
      const auto rb = b.try_pop_response();
      ASSERT_EQ(ra.has_value(), rb.has_value()) << "turn " << turn;
      if (!ra.has_value()) break;
      ASSERT_EQ(ra->seq, rb->seq);
      ASSERT_EQ(ra->results.size(), rb->results.size());
      for (std::size_t i = 0; i < ra->results.size(); ++i) {
        EXPECT_EQ(ra->results[i].hit, rb->results[i].hit);
        EXPECT_EQ(ra->results[i].global_address, rb->results[i].global_address);
      }
      ++outputs;
    }
    while (true) {
      const auto aa = a.try_pop_ack();
      const auto ab = b.try_pop_ack();
      ASSERT_EQ(aa.has_value(), ab.has_value()) << "turn " << turn;
      if (!aa.has_value()) break;
      ASSERT_EQ(aa->seq, ab->seq);
      EXPECT_EQ(aa->words_written, ab->words_written);
      ++outputs;
    }
  }
  EXPECT_GT(outputs, 150u);
  EXPECT_EQ(a.output_horizon(), 0u);
}

TEST(CamBackendDefaults, CamSystemStepManyIsRepeatedStep) {
  CamSystem a(small_shard_config());
  CamSystem b(small_shard_config());
  expect_step_many_is_repeated_step(a, b);
}

TEST(CamBackendDefaults, EngineStepManyIsRepeatedStep) {
  ShardedCamEngine::Config ec;
  ec.shards = 4;
  ShardedCamEngine a(ec, small_shard_config());
  ShardedCamEngine b(ec, small_shard_config());
  expect_step_many_is_repeated_step(a, b);
}

// The driver's blocking wrappers over a sharded engine.
TEST(ShardedCamEngine, SyncWrappersStillCorrect) {
  ShardedCamEngine::Config ec;
  ec.shards = 2;
  CamSystem::Config sc = small_shard_config();
  sc.request_fifo_depth = 8;
  sc.response_fifo_depth = 8;
  sc.ack_fifo_depth = 8;
  CamDriver drv(std::make_unique<ShardedCamEngine>(ec, sc));

  const std::vector<cam::Word> words{3, 7, 11, 15};
  EXPECT_EQ(drv.store(words), 4u);
  for (const cam::Word w : words) {
    const auto r = drv.search(w);
    EXPECT_TRUE(r.hit) << "key " << w;
  }
  EXPECT_FALSE(drv.search(99).hit);
  drv.reset();
  EXPECT_FALSE(drv.search(3).hit);
}

}  // namespace
}  // namespace dspcam::system
