// Host-hardening tests: the CamDriver watchdog (wedged backends throw
// SimError with a diagnostic dump instead of spinning forever), submit-time
// request validation, ShardedCamEngine::Config::validate(), degraded-shard
// quarantine semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/system/driver.h"
#include "src/system/sharded_engine.h"

namespace dspcam::system {
namespace {

CamSystem::Config small_config(bool parity = false) {
  CamSystem::Config cfg;
  cfg.unit.block.cell.data_width = 32;
  cfg.unit.block.block_size = 32;
  cfg.unit.block.bus_width = 512;
  cfg.unit.block.parity = parity;
  cfg.unit.unit_size = 4;
  cfg.unit.bus_width = 512;
  return cfg;
}

// A backend that swallows requests and never completes them (a deadlocked
// pipeline / dropped response). Optionally refuses submissions outright, to
// wedge the driver's submit retry loops instead.
class WedgedBackend : public CamBackend {
 public:
  bool accept = true;

  unsigned data_width() const override { return 32; }
  cam::CamKind kind() const override { return cam::CamKind::kBinary; }
  unsigned capacity() const override { return 16; }
  unsigned words_per_beat() const override { return 1; }
  unsigned max_keys_per_beat() const override { return 1; }
  void configure_groups(unsigned m) override {
    if (m != 1) throw ConfigError("WedgedBackend: no groups");
  }
  bool try_submit(cam::UnitRequest) override {
    if (!accept) return false;
    ++swallowed_;
    return true;
  }
  std::optional<cam::UnitResponse> try_pop_response() override { return std::nullopt; }
  std::optional<cam::UnitUpdateAck> try_pop_ack() override { return std::nullopt; }
  bool request_full() const override { return !accept; }
  std::size_t pending_requests() const override { return swallowed_; }
  void step() override { ++stats_.cycles; }
  bool idle() const override { return swallowed_ == 0; }
  Stats stats() const override { return stats_; }
  model::ResourceUsage resources() const override { return {}; }
  std::string debug_dump() const override {
    return "wedged{swallowed=" + std::to_string(swallowed_) + "}";
  }

 private:
  std::size_t swallowed_ = 0;
  Stats stats_;
};

TEST(Watchdog, DrainThrowsSimErrorWithDiagnosticsWithinBudget) {
  WedgedBackend backend;
  CamDriver drv(backend);
  drv.set_stall_budget(100);

  cam::UnitRequest req;
  req.op = cam::OpKind::kSearch;
  req.keys = {7};
  const auto ticket = drv.submit_async(std::move(req));

  try {
    drv.drain();
    FAIL() << "drain() must throw on a backend that never completes";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("drain"), std::string::npos) << msg;
    EXPECT_NE(msg.find("100 cycles"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tickets=[" + std::to_string(ticket) + "]"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("wedged{swallowed=1}"), std::string::npos)
        << "the backend's own dump must be embedded: " << msg;
  }
  EXPECT_LT(backend.stats().cycles, 200u)
      << "the watchdog must fire within ~budget cycles, not spin";
}

TEST(Watchdog, ResetRetryLoopIsGuardedToo) {
  WedgedBackend backend;
  backend.accept = false;  // nothing in flight, but submission never succeeds
  CamDriver drv(backend);
  drv.set_stall_budget(50);
  EXPECT_THROW(drv.reset(), SimError);
}

TEST(Watchdog, StallBudgetIsConfigurable) {
  WedgedBackend backend;
  CamDriver drv(backend);
  EXPECT_EQ(drv.stall_budget(), CamDriver::kDefaultStallBudget);
  EXPECT_THROW(drv.set_stall_budget(0), ConfigError);
  drv.set_stall_budget(1234);
  EXPECT_EQ(drv.stall_budget(), 1234u);
}

TEST(Watchdog, HealthyBackendDrainsWellUnderDefaultBudget) {
  CamDriver drv(small_config());
  drv.set_stall_budget(64);  // tight: progress resets the stagnation counter
  drv.store(std::vector<cam::Word>{1, 2, 3});
  EXPECT_TRUE(drv.search(2).hit);
  EXPECT_NO_THROW(drv.drain());
}

// --- Submit-time request validation. ---

TEST(SubmitValidation, EmptySearchIsRejectedNamingTheField) {
  CamDriver drv(small_config());
  cam::UnitRequest req;
  req.op = cam::OpKind::kSearch;
  try {
    drv.submit_async(std::move(req));
    FAIL() << "empty key list must be rejected";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("'keys'"), std::string::npos) << e.what();
  }
  EXPECT_EQ(drv.inflight(), 0u) << "a rejected request takes no ticket";
}

TEST(SubmitValidation, OverWideKeyIsRejectedWithWidthAndIndex) {
  CamDriver drv(small_config());
  cam::UnitRequest req;
  req.op = cam::OpKind::kSearch;
  req.keys = {5, std::uint64_t{1} << 40};
  try {
    drv.submit_async(std::move(req));
    FAIL() << "a key wider than data_width must be rejected";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("keys[1]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("32-bit"), std::string::npos) << msg;
  }
}

TEST(SubmitValidation, ResetKeepsItsConfigErrorContract) {
  CamDriver drv(small_config());
  cam::UnitRequest req;
  req.op = cam::OpKind::kReset;
  EXPECT_THROW(drv.submit_async(std::move(req)), ConfigError);
  cam::UnitRequest idle;
  idle.op = cam::OpKind::kIdle;
  EXPECT_THROW(drv.submit_async(std::move(idle)), ConfigError);
}

TEST(SubmitValidation, UnknownOpKindIsRejectedActionably) {
  CamDriver drv(small_config());
  cam::UnitRequest req;
  req.op = static_cast<cam::OpKind>(250);
  try {
    drv.submit_async(std::move(req));
    FAIL() << "an OpKind outside the enum must be rejected";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown OpKind"), std::string::npos) << msg;
    EXPECT_NE(msg.find("250"), std::string::npos) << msg;
  }
}

// --- ShardedCamEngine::Config::validate(). ---

TEST(ShardedConfig, ValidateRejectsUnusableGeometry) {
  ShardedCamEngine::Config cfg;
  EXPECT_NO_THROW(cfg.validate());

  cfg.shards = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg.shards = 4;

  cfg.key_bits = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg.key_bits = 65;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg.key_bits = 64;
  EXPECT_NO_THROW(cfg.validate());

  cfg.credits_per_shard = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg.credits_per_shard = 1;

  cfg.step_threads = 999;  // shards step serially; nothing else is accepted
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg.step_threads = 1;

  ShardedCamEngine::Config bad;
  bad.shards = 0;
  EXPECT_THROW(ShardedCamEngine(bad, small_config()), ConfigError)
      << "the constructor must route through validate()";
}

// The shards step serially, so step_threads accepts exactly 1. Any other
// value - including the 0 a zero-initialised Config would carry - is
// refused by validate() and by the constructor, never silently ignored.
class StepThreadsTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(StepThreadsTest, ValueOtherThanOneFailsClosed) {
  ShardedCamEngine::Config cfg;
  cfg.shards = 2;
  cfg.step_threads = GetParam();
  EXPECT_THROW(cfg.validate(), ConfigError);
  EXPECT_THROW(ShardedCamEngine(cfg, small_config()), ConfigError);
}

INSTANTIATE_TEST_SUITE_P(Values, StepThreadsTest, ::testing::Values(0u, 2u, 8u));

TEST(ShardedConfig, SerialEngineReportsOneStepThread) {
  ShardedCamEngine::Config cfg;
  cfg.shards = 4;
  ASSERT_EQ(cfg.step_threads, 1u);
  const ShardedCamEngine engine(cfg, small_config());
  EXPECT_EQ(engine.effective_step_threads(), 1u);
  EXPECT_EQ(engine.config().step_threads, 1u);
}

// --- Degraded-shard mode. ---

ShardedCamEngine::Config engine_config(unsigned shards) {
  ShardedCamEngine::Config cfg;
  cfg.shards = shards;
  cfg.credits_per_shard = 64;
  return cfg;
}

TEST(DegradedShard, QuarantinedKeysComeBackShardFailedNotMiss) {
  ShardedCamEngine engine(engine_config(4), small_config());
  CamDriver drv(engine);
  std::vector<cam::Word> words;
  for (cam::Word w = 0; w < 64; ++w) words.push_back(w);
  drv.store(words);

  EXPECT_THROW(engine.quarantine_shard(4), ConfigError);
  const unsigned dead = engine.shard_of(13);
  engine.quarantine_shard(dead);
  EXPECT_TRUE(engine.shard_quarantined(dead));
  EXPECT_EQ(engine.quarantined_count(), 1u);
  engine.quarantine_shard(dead);  // idempotent
  EXPECT_EQ(engine.quarantined_count(), 1u);

  const auto failed = drv.search(13);
  EXPECT_TRUE(failed.shard_failed) << "a dead shard must not report a miss";
  EXPECT_FALSE(failed.hit);
  EXPECT_EQ(failed.shard, dead);

  cam::Word live_key = 0;
  for (cam::Word w = 0; w < 64; ++w) {
    if (engine.shard_of(w) != dead) {
      live_key = w;
      break;
    }
  }
  const auto ok = drv.search(live_key);
  EXPECT_TRUE(ok.hit) << "live shards keep answering";
  EXPECT_FALSE(ok.shard_failed);

  const std::string dump = engine.debug_dump();
  EXPECT_NE(dump.find("QUARANTINED"), std::string::npos) << dump;
}

TEST(DegradedShard, QuarantineSettlesInflightSubOperations) {
  ShardedCamEngine engine(engine_config(4), small_config());
  CamDriver drv(engine);
  drv.set_stall_budget(10000);
  std::vector<cam::Word> words;
  for (cam::Word w = 0; w < 64; ++w) words.push_back(w);
  drv.store(words);

  const unsigned dead = engine.shard_of(21);
  // Park work on the doomed shard: searches and an append whose key routes
  // there, submitted but not yet completed.
  std::vector<CamDriver::Ticket> search_tickets;
  for (cam::Word w = 0; w < 64; ++w) {
    if (engine.shard_of(w) != dead) continue;
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    req.keys = {w};
    search_tickets.push_back(drv.submit_async(std::move(req)));
  }
  ASSERT_FALSE(search_tickets.empty()) << "hash partition must route some keys there";
  cam::Word dead_word = 1000;
  while (engine.shard_of(dead_word) != dead) ++dead_word;
  cam::UnitRequest upd;
  upd.op = cam::OpKind::kUpdate;
  upd.words = {dead_word};
  const auto upd_ticket = drv.submit_async(std::move(upd));

  engine.quarantine_shard(dead);
  EXPECT_NO_THROW(drv.drain()) << "settled beats must complete, not wedge";

  unsigned failed_results = 0;
  while (auto c = drv.try_pop_completion()) {
    if (c->op == cam::OpKind::kSearch) {
      for (const auto& r : c->results) {
        if (r.shard_failed) ++failed_results;
      }
    } else if (c->ticket == upd_ticket) {
      EXPECT_EQ(c->words_written, 0u)
          << "the quarantined shard contributed zero words";
    }
  }
  EXPECT_GE(failed_results, search_tickets.size())
      << "every in-flight search owed by the dead shard must settle as failed";
  EXPECT_TRUE(engine.idle()) << "a frozen shard no longer counts against idle";
}

}  // namespace
}  // namespace dspcam::system
