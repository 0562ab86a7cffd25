#include "src/system/backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "src/cam/mask.h"
#include "src/common/error.h"
#include "src/common/random.h"
#include "src/system/driver.h"
#include "src/system/sharded_engine.h"

namespace dspcam::system {
namespace {

CamSystem::Config small_config(std::size_t req_depth = 64) {
  CamSystem::Config cfg;
  cfg.unit.block.cell.data_width = 32;
  cfg.unit.block.block_size = 32;
  cfg.unit.block.bus_width = 512;
  cfg.unit.unit_size = 4;
  cfg.unit.bus_width = 512;
  cfg.request_fifo_depth = req_depth;
  cfg.response_fifo_depth = 64;
  cfg.ack_fifo_depth = 64;
  return cfg;
}

// --- CamBackend::Stats aggregation. ---

// Pins operator+= field by field (backend.h notes this test): a new Stats
// field that is not wired into the summation silently vanishes from every
// sharded/aggregated report, so each field gets a distinct prime value and
// an exact expectation.
TEST(CamBackendStats, PlusEqualsCombinesEveryField) {
  CamBackend::Stats a;
  a.cycles = 100;
  a.issued = 3;
  a.stall_cycles = 5;
  a.responses = 7;
  a.acks = 11;
  a.parity_flagged = 13;
  a.keys_searched = 17;
  a.hits = 19;
  a.gated_cycles = 23;

  CamBackend::Stats b;
  b.cycles = 90;  // lockstep shards: max(), not sum
  b.issued = 29;
  b.stall_cycles = 31;
  b.responses = 37;
  b.acks = 41;
  b.parity_flagged = 43;
  b.keys_searched = 47;
  b.hits = 53;
  b.gated_cycles = 59;

  a += b;
  EXPECT_EQ(a.cycles, 100u);  // shards tick in lockstep -> max
  EXPECT_EQ(a.issued, 3u + 29u);
  EXPECT_EQ(a.stall_cycles, 5u + 31u);
  EXPECT_EQ(a.responses, 7u + 37u);
  EXPECT_EQ(a.acks, 11u + 41u);
  EXPECT_EQ(a.parity_flagged, 13u + 43u);
  EXPECT_EQ(a.keys_searched, 17u + 47u);
  EXPECT_EQ(a.hits, 19u + 53u);
  EXPECT_EQ(a.gated_cycles, 23u + 59u);

  // Adding a default-constructed Stats changes nothing (identity).
  const CamBackend::Stats snapshot = a;
  a += CamBackend::Stats{};
  EXPECT_EQ(a.cycles, snapshot.cycles);
  EXPECT_EQ(a.issued, snapshot.issued);
  EXPECT_EQ(a.stall_cycles, snapshot.stall_cycles);
  EXPECT_EQ(a.responses, snapshot.responses);
  EXPECT_EQ(a.acks, snapshot.acks);
  EXPECT_EQ(a.parity_flagged, snapshot.parity_flagged);
  EXPECT_EQ(a.keys_searched, snapshot.keys_searched);
  EXPECT_EQ(a.hits, snapshot.hits);
  EXPECT_EQ(a.gated_cycles, snapshot.gated_cycles);
}

// --- Async driver core. ---

TEST(CamDriverAsync, TicketsCompleteWithResults) {
  CamDriver drv(small_config());
  drv.store(std::vector<cam::Word>{5, 6, 7});

  cam::UnitRequest hit;
  hit.op = cam::OpKind::kSearch;
  hit.keys = {6};
  const auto t1 = drv.submit_async(std::move(hit));
  cam::UnitRequest miss;
  miss.op = cam::OpKind::kSearch;
  miss.keys = {99};
  const auto t2 = drv.submit_async(std::move(miss));
  EXPECT_EQ(drv.inflight(), 2u);

  drv.drain();
  EXPECT_EQ(drv.inflight(), 0u);

  const auto c1 = drv.try_pop_completion();
  const auto c2 = drv.try_pop_completion();
  ASSERT_TRUE(c1.has_value());
  ASSERT_TRUE(c2.has_value());
  EXPECT_FALSE(drv.try_pop_completion().has_value());
  EXPECT_EQ(c1->ticket, t1);
  EXPECT_EQ(c2->ticket, t2);
  EXPECT_EQ(c1->op, cam::OpKind::kSearch);
  ASSERT_EQ(c1->results.size(), 1u);
  EXPECT_TRUE(c1->results[0].hit);
  EXPECT_FALSE(c2->results[0].hit);
}

TEST(CamDriverAsync, RejectsResetTickets) {
  CamDriver drv(small_config());
  cam::UnitRequest req;
  req.op = cam::OpKind::kReset;
  EXPECT_THROW(drv.submit_async(std::move(req)), ConfigError);
}

TEST(CamDriverAsync, BatchedSubmissionsPipeline) {
  CamDriver drv(small_config());
  std::vector<cam::Word> words(16);
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = i;
  drv.store(words);

  constexpr unsigned kOps = 64;
  const auto start = drv.cycles();
  for (unsigned i = 0; i < kOps; ++i) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    req.keys = {i % 16};
    drv.submit_async(std::move(req));
  }
  drv.drain();
  const auto elapsed = drv.cycles() - start;
  EXPECT_LT(elapsed, 2 * kOps) << "async batch must reach ~II=1";
  unsigned count = 0;
  while (auto c = drv.try_pop_completion()) {
    EXPECT_TRUE(c->results.at(0).hit);
    ++count;
  }
  EXPECT_EQ(count, kOps);
}

// Regression for the partial-acceptance bug: a store whose beats outnumber
// the request FIFO must drive request_fifo_full() true mid-batch, retry,
// and still account for every word.
TEST(CamDriverAsync, StoreRetriesThroughRequestFifoBackpressure) {
  CamDriver drv(small_config(/*req_depth=*/2));

  // Async probe first: park more beats than the FIFO holds and observe the
  // backpressure the retry loop must absorb.
  std::vector<CamDriver::Ticket> tickets;
  for (unsigned b = 0; b < 6; ++b) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kUpdate;
    for (unsigned i = 0; i < 16; ++i) req.words.push_back(16 * b + i);
    tickets.push_back(drv.submit_async(std::move(req)));
  }
  EXPECT_TRUE(drv.backend().request_full())
      << "6 beats into a 2-deep FIFO must exert backpressure";
  drv.drain();
  unsigned accepted = 0;
  while (auto c = drv.try_pop_completion()) accepted += c->words_written;
  EXPECT_EQ(accepted, 96u) << "every beat must eventually land";

  // And the sync wrapper built on the same path: nothing under-counted.
  drv.reset();
  std::vector<cam::Word> words(96);
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = 1000 + i;
  EXPECT_EQ(drv.store(words), 96u);
  EXPECT_TRUE(drv.search(1095).hit);
}

TEST(CamDriverAsync, MixedUpdateSearchStreamKeepsOrder) {
  CamDriver drv(small_config());
  Rng rng(3);
  std::unordered_set<cam::Word> contents;
  for (int round = 0; round < 50; ++round) {
    if (rng.next_bool(0.4) && contents.size() < 100) {
      const cam::Word w = rng.next_bits(10);
      cam::UnitRequest req;
      req.op = cam::OpKind::kUpdate;
      req.words = {w};
      drv.submit_async(std::move(req));
      contents.insert(w);
    } else {
      const cam::Word key = rng.next_bits(10);
      cam::UnitRequest req;
      req.op = cam::OpKind::kSearch;
      req.keys = {key};
      drv.submit_async(std::move(req));
    }
    // In-order per-kind completion means a search submitted after an update
    // observes it once both are drained.
  }
  drv.drain();
  while (auto c = drv.try_pop_completion()) {
    if (c->op == cam::OpKind::kSearch && c->results.at(0).hit) {
      EXPECT_TRUE(contents.contains(c->results[0].key));
    }
  }
}

/// A CamSystem that counts try_submit() calls: each refused one copies a
/// beat for nothing.
class SubmitCountingBackend final : public CamBackend {
 public:
  explicit SubmitCountingBackend(const CamSystem::Config& cfg) : inner_(cfg) {}

  std::size_t submits = 0;

  unsigned data_width() const override { return inner_.data_width(); }
  cam::CamKind kind() const override { return inner_.kind(); }
  unsigned capacity() const override { return inner_.capacity(); }
  unsigned words_per_beat() const override { return inner_.words_per_beat(); }
  unsigned max_keys_per_beat() const override { return inner_.max_keys_per_beat(); }
  unsigned max_groups() const override { return inner_.max_groups(); }
  void configure_groups(unsigned m) override { inner_.configure_groups(m); }
  bool try_submit(cam::UnitRequest request) override {
    ++submits;
    return inner_.try_submit(std::move(request));
  }
  std::optional<cam::UnitResponse> try_pop_response() override {
    return inner_.try_pop_response();
  }
  std::optional<cam::UnitUpdateAck> try_pop_ack() override { return inner_.try_pop_ack(); }
  bool request_full() const override { return inner_.request_full(); }
  std::size_t pending_requests() const override { return inner_.pending_requests(); }
  void step() override { inner_.step(); }
  bool idle() const override { return inner_.idle(); }
  Stats stats() const override { return inner_.stats(); }
  model::ResourceUsage resources() const override { return inner_.resources(); }

 private:
  CamSystem inner_;
};

// submit_async() offers a beat to the backend only when nothing is queued
// ahead of it: backend acceptance changes only in step(), and poll() pumps
// before stepping, so a beat queued behind a refused one
// enters the FIFO in the same cycle an eager retry on every submit would
// have managed. Completion cycles are checked against exactly that eager
// loop run on a bare CamSystem.
TEST(CamDriverAsync, SubmitPumpsOnlyANewFront) {
  constexpr std::size_t kDepth = 4;
  const std::vector<cam::Word> preload = {3, 5, 7, 9};
  // Bursts submitted before poll number `at`; later ones land while the
  // retry queue is still backed up.
  struct Burst {
    unsigned at;
    unsigned beats;
  };
  const std::vector<Burst> bursts = {{0, 40}, {3, 5}, {10, 12}, {80, 3}};
  const auto make_request = [](unsigned i) {
    cam::UnitRequest req;
    if (i % 5 == 4) {
      req.op = cam::OpKind::kUpdate;
      req.words = {100 + i};
    } else {
      req.op = cam::OpKind::kSearch;
      req.keys = {i % 12};
    }
    return req;
  };
  constexpr unsigned kPolls = 200;

  // The driver: completion poll of the i-th submitted beat.
  SubmitCountingBackend backend(small_config(kDepth));
  CamDriver drv(backend);
  drv.store(preload);
  while (drv.try_pop_completion()) {
  }
  std::vector<CamDriver::Ticket> tickets;
  std::vector<unsigned> done_at;
  for (unsigned poll = 0; poll < kPolls; ++poll) {
    for (const Burst& b : bursts) {
      if (b.at != poll) continue;
      backend.submits = 0;
      for (unsigned i = 0; i < b.beats; ++i) {
        tickets.push_back(drv.submit_async(make_request(static_cast<unsigned>(tickets.size()))));
      }
      EXPECT_LE(backend.submits, kDepth + 1) << "burst at poll " << poll;
    }
    drv.poll();
    while (auto c = drv.try_pop_completion()) {
      const auto it = std::find(tickets.begin(), tickets.end(), c->ticket);
      ASSERT_NE(it, tickets.end());
      const std::size_t index = static_cast<std::size_t>(it - tickets.begin());
      if (done_at.size() <= index) done_at.resize(index + 1, ~0u);
      done_at[index] = poll;
    }
  }
  ASSERT_EQ(drv.inflight(), 0u);

  // The eager reference: every submit retries the whole queue.
  CamSystem sys(small_config(kDepth));
  cam::UnitRequest load;
  load.op = cam::OpKind::kUpdate;
  load.words.assign(preload.begin(), preload.end());
  ASSERT_TRUE(sys.try_submit(std::move(load)));
  while (!sys.idle() || sys.try_pop_ack()) sys.step();
  std::deque<cam::UnitRequest> queue;
  const auto pump = [&] {
    while (!queue.empty() && sys.try_submit(queue.front())) queue.pop_front();
  };
  std::vector<unsigned> want(tickets.size(), ~0u);
  unsigned submitted = 0;
  for (unsigned poll = 0; poll < kPolls; ++poll) {
    for (const Burst& b : bursts) {
      if (b.at != poll) continue;
      for (unsigned i = 0; i < b.beats; ++i) {
        cam::UnitRequest req = make_request(submitted);
        req.seq = submitted++;
        queue.push_back(std::move(req));
        pump();
      }
    }
    pump();
    sys.step();
    while (auto r = sys.try_pop_response()) want.at(r->seq) = poll;
    while (auto a = sys.try_pop_ack()) want.at(a->seq) = poll;
  }
  ASSERT_EQ(done_at.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NE(want[i], ~0u) << "beat " << i << " never completed in the reference";
    EXPECT_EQ(done_at[i], want[i]) << "beat " << i;
  }
}

// With nothing queued ahead, submit_async() offers a beat to the backend at
// once. A refused beat is queued and gets no second offer before poll(),
// and the beats behind it get none at all.
TEST(CamDriverAsync, RefusedDirectOfferQueuesWithoutASecondOffer) {
  SubmitCountingBackend backend(small_config(2));
  CamDriver drv(backend);
  const auto search = [](cam::Word key) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    req.keys = {key};
    return req;
  };
  drv.submit_async(search(1));
  drv.submit_async(search(2));
  EXPECT_EQ(backend.submits, 2u) << "each beat is offered once, at submit";
  EXPECT_EQ(backend.pending_requests(), 2u);
  drv.submit_async(search(3));  // the FIFO is full: refused, queued
  EXPECT_EQ(backend.submits, 3u);
  drv.submit_async(search(4));
  drv.submit_async(search(5));
  EXPECT_EQ(backend.submits, 3u) << "a beat behind a refused one was offered";
  EXPECT_EQ(drv.inflight(), 5u);
  drv.poll();  // pumps before the clock edge, while the FIFO is still full
  EXPECT_EQ(backend.submits, 4u);
  drv.drain();
  std::vector<cam::Word> keys;
  while (auto c = drv.try_pop_completion()) keys.push_back(c->results.at(0).key);
  EXPECT_EQ(keys, (std::vector<cam::Word>{1, 2, 3, 4, 5}));
}

TEST(CamDriver, BorrowedBackendAndLegacyAccessor) {
  CamSystem sys(small_config());
  CamDriver drv(sys);
  drv.store(std::vector<cam::Word>{1, 2, 3});
  EXPECT_TRUE(drv.search(2).hit);
  EXPECT_EQ(&drv.system(), &sys) << "legacy accessor resolves the CamSystem";

  ShardedCamEngine::Config ecfg;
  ecfg.shards = 2;
  ShardedCamEngine engine(ecfg, small_config());
  CamDriver drv2(engine);
  EXPECT_THROW(drv2.system(), SimError);
}

}  // namespace
}  // namespace dspcam::system
