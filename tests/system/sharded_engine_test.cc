#include "src/system/sharded_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/cam/reference_cam.h"
#include "src/common/error.h"
#include "src/common/random.h"
#include "src/system/driver.h"

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

  // Addressed writes are the caller's contract: to be findable, the slot
  // must sit in the slice of the shard the partitioner routes the key to.
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
  std::uint64_t response_calls = 0;
  std::uint64_t response_sweeps = 0;
  std::uint64_t ack_calls = 0;
  std::uint64_t ack_sweeps = 0;
};

/// A CamSystem shard that counts how the engine polls it, and can hand the
/// engine one response it never asked for.
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

// Shards emit output only on their own clock edge, so the engine sweeps
// each live shard exactly once per step(), and host pops are reorder-buffer
// pops that never reach a shard - however often the host polls.
TEST(ShardedCamEngine, CollectsEachLiveShardOncePerStep) {
  CountedEngine ce(4);
  ShardedCamEngine& engine = *ce.engine;
  Rng rng(404);
  std::uint64_t seq = 1;
  std::size_t popped = 0;
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
      const unsigned sweeps = engine.shard_quarantined(s) ? 0 : 1;
      ASSERT_EQ(ce.counts[s].response_sweeps - before[s].response_sweeps, sweeps)
          << "shard " << s << " cycle " << cycle;
      ASSERT_EQ(ce.counts[s].ack_sweeps - before[s].ack_sweeps, sweeps)
          << "shard " << s << " cycle " << cycle;
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
}

TEST(ShardedCamEngine, StrayShardResponseStillThrowsFromStep) {
  CountedEngine ce(4);
  ce.engine->step();
  ce.shards[1]->inject_response = true;
  EXPECT_THROW(ce.engine->step(), SimError);
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
