// Steady-state allocation guard for the fast search path (DESIGN.md §14).
//
// The fused sweep→encode plane exists so a streaming search workload never
// touches the heap once warm: kernels write into preallocated scratch and
// responses travel inline. This binary replaces the global operator
// new/delete with counting versions and asserts the delta over a
// steady-state search loop is exactly zero on whole kFast units (their
// group planes re-sliced by configure_groups between rounds), for the
// fused sweep on binary and masked planes and the exact-match index (its
// table is sized at first use, then reused through every rebuild), under
// every encoding scheme, with and without the encoder output register. One
// level up, beats carry their keys, words and results inline
// (cam::BeatVec), so a ShardedCamEngine beat (submit, step, reorder-buffer
// pops) and whole CamDriver turns on the end-to-end bench shapes
// (lookup_8k, sharded_churn, tc_paper with its per-chunk regroup and
// store) are pinned at zero too, and so are driver turns with a metric
// registry attached.
//
// The guard is its own test executable: replacing ::operator new is a
// program-wide decision that must not leak into the other suites. Under
// ASan/TSan the replacement is not installed at all (the sanitizer runtime
// owns the allocator) and the tests skip.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "src/cam/unit.h"
#include "src/common/random.h"
#include "src/system/driver.h"
#include "src/system/sharded_engine.h"
#include "src/tc/cam_accel.h"
#include "src/telemetry/metrics.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DSPCAM_ALLOC_GUARD_DISABLED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DSPCAM_ALLOC_GUARD_DISABLED 1
#endif
#endif

namespace {
std::size_t g_alloc_count = 0;  // single-threaded test binary
}  // namespace

#if !defined(DSPCAM_ALLOC_GUARD_DISABLED)

// noinline: a replacement inlined next to a std::vector's allocate/free
// pair makes GCC report a new/free mismatch (-Wmismatched-new-delete).
__attribute__((noinline)) void* operator new(std::size_t n) {
  ++g_alloc_count;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  ++g_alloc_count;
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // !DSPCAM_ALLOC_GUARD_DISABLED

namespace dspcam::cam {
namespace {

BlockConfig steady_cfg(CamKind kind, unsigned width, unsigned size,
                       EncodingScheme scheme, bool buffered) {
  BlockConfig cfg;
  cfg.cell.kind = kind;
  cfg.cell.data_width = width;
  cfg.block_size = size;
  cfg.bus_width = 512;
  cfg.encoding = scheme;
  cfg.output_buffer = buffered;
  return cfg;
}

class AllocGuard : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(DSPCAM_ALLOC_GUARD_DISABLED)
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  }
};

/// Unit-level steady state: one round per entry of `rounds` - regroup to
/// that group count (changing the count reallocates the unit's address
/// controllers, so callers keep it fixed), an addressed reload, and a
/// closed search loop - all
/// requests pre-built. With `churn`, the search loop also carries
/// invalidates, single-word rewrites and a mid-loop reset with a partial
/// reload, so every indexed plane goes stale and rebuilds many times.
/// Returns the heap allocations of every round after the first `warm`.
std::size_t measure_unit_rounds(const UnitConfig& cfg,
                                const std::vector<unsigned>& rounds,
                                std::size_t warm, bool churn,
                                std::uint64_t* checksum) {
  constexpr std::size_t kSearches = 256;
  CamUnit unit(cfg);
  Rng rng(0xA110C ^ cfg.unit_size ^ static_cast<unsigned>(cfg.block.encoding));
  const unsigned wpb = cfg.words_per_beat();

  std::vector<UnitRequest> reqs;
  std::vector<std::size_t> round_end;
  const auto reload = [&](unsigned entries) {
    for (unsigned a = 0; a < entries; a += wpb) {
      UnitRequest w;
      w.op = OpKind::kUpdate;
      w.address = a;
      for (unsigned i = 0; i < wpb; ++i) w.words.push_back(rng.next_bits(10));
      reqs.push_back(std::move(w));
    }
  };
  for (const unsigned groups : rounds) {
    const unsigned per_group = cfg.unit_size / groups * cfg.block.block_size;
    reload(per_group);
    for (std::size_t i = 0; i < kSearches; ++i) {
      UnitRequest q;
      if (churn && i == kSearches / 2) {
        q.op = OpKind::kReset;
        reqs.push_back(std::move(q));
        reload(per_group / 4);
        continue;
      }
      if (churn && i % 8 == 3) {
        q.op = OpKind::kInvalidate;
        q.address = static_cast<std::uint32_t>(rng.next_below(per_group));
      } else if (churn && i % 8 == 7) {
        q.op = OpKind::kUpdate;
        q.address = static_cast<std::uint32_t>(rng.next_below(per_group));
        q.words = {rng.next_bits(10)};
      } else {
        q.op = OpKind::kSearch;
        for (unsigned g = 0; g < groups; ++g) q.keys.push_back(rng.next_bits(10));
      }
      reqs.push_back(std::move(q));
    }
    round_end.push_back(reqs.size());
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].seq = i + 1;

  std::uint64_t sum = 0;
  std::size_t measured = 0;
  std::size_t next = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const std::size_t before = g_alloc_count;
    unit.configure_groups(rounds[r]);
    while (next < round_end[r] || !unit.idle()) {
      if (next < round_end[r] && unit.can_accept()) {
        unit.issue(std::move(reqs[next]));
        ++next;
      }
      unit.eval();
      unit.commit();
      if (unit.response().has_value()) {
        for (const auto& res : unit.response()->results) {
          sum += res.hit + res.global_address + res.match_count;
        }
      }
    }
    if (r >= warm) measured += g_alloc_count - before;
  }
  *checksum = sum;
  return measured;
}

UnitConfig unit_cfg(unsigned blocks, EncodingScheme scheme, unsigned groups) {
  UnitConfig cfg;
  cfg.block = steady_cfg(CamKind::kBinary, 32, 256, scheme, /*buffered=*/true);
  cfg.unit_size = blocks;
  cfg.bus_width = 512;
  cfg.initial_groups = groups;
  return cfg;
}

TEST_F(AllocGuard, UnitFastPlanesAreAllocFreeAcrossRegrouping) {
  // 32 x 256 units in one group (the lookup_8k shape) and in four, each as
  // a BCAM (its planes indexed) and as a TCAM (its planes swept), under
  // every encoding scheme, with and without the encoder output register.
  for (const EncodingScheme scheme :
       {EncodingScheme::kPriorityIndex, EncodingScheme::kOneHot,
        EncodingScheme::kMatchCount}) {
    for (const unsigned groups : {1u, 4u}) {
      for (const CamKind kind : {CamKind::kBinary, CamKind::kTernary}) {
        for (const bool buffered : {false, true}) {
          UnitConfig cfg = unit_cfg(32, scheme, groups);
          cfg.block.cell.kind = kind;
          cfg.block.output_buffer = buffered;
          std::uint64_t sum = 0;
          const std::vector<unsigned> rounds(3, groups);
          const std::size_t allocs =
              measure_unit_rounds(cfg, rounds, /*warm=*/1, /*churn=*/false, &sum);
          EXPECT_EQ(allocs, 0u) << "scheme " << static_cast<int>(scheme) << " groups "
                                << groups << " kind " << to_string(kind)
                                << " buffered " << buffered;
          EXPECT_NE(sum, 0u) << "search loop produced no hits";
        }
      }
    }
  }
}

TEST_F(AllocGuard, IndexedUnitIsAllocFreeThroughChurnAndRegrouping) {
  // The lookup_8k shape as one 8192-entry plane and as four 2048-entry
  // ones: every plane is indexed, and invalidates, rewrites and resets make
  // each one rebuild over and over, round after round of regrouping. The
  // warm-up round sizes the tables; after that nothing allocates.
  for (const EncodingScheme scheme :
       {EncodingScheme::kPriorityIndex, EncodingScheme::kOneHot,
        EncodingScheme::kMatchCount}) {
    for (const unsigned groups : {1u, 4u}) {
      const UnitConfig cfg = unit_cfg(32, scheme, groups);
      {
        const CamUnit probe(cfg);
        for (unsigned g = 0; g < groups; ++g) ASSERT_TRUE(probe.group_indexed(g)) << g;
      }
      std::uint64_t sum = 0;
      const std::vector<unsigned> rounds(3, groups);
      const std::size_t allocs =
          measure_unit_rounds(cfg, rounds, /*warm=*/1, /*churn=*/true, &sum);
      EXPECT_EQ(allocs, 0u) << "scheme " << static_cast<int>(scheme) << " groups "
                            << groups;
      EXPECT_NE(sum, 0u) << "search loop produced no hits";
    }
  }
}

/// The sharded e2e geometry: S=4 hash-sharded CamSystems of 16 blocks x 16
/// cells (one group, so one lane per shard).
system::CamSystem::Config sharded_shard_cfg() {
  system::CamSystem::Config sc;
  sc.unit.block = steady_cfg(CamKind::kBinary, 32, 16, EncodingScheme::kPriorityIndex,
                             /*buffered=*/false);
  sc.unit.unit_size = 16;
  sc.unit.bus_width = 512;
  return sc;
}

/// Beat `i` of the sharded_churn stream: a 4-key search, or an addressed
/// single-word rewrite every 16th beat. The rewrite draws a word that
/// partitions to the shard owning the address, as the engine requires.
UnitRequest churn_beat(Rng& rng, const system::ShardedCamEngine& engine, std::size_t i) {
  UnitRequest q;
  if (i % 16 == 15) {
    q.op = OpKind::kUpdate;
    const std::uint32_t address = static_cast<std::uint32_t>(rng.next_below(engine.capacity()));
    Word w = rng.next_bits(20);
    while (engine.shard_of(w) != address / engine.shard(0).capacity()) w = rng.next_bits(20);
    q.address = address;
    q.words = {w};
  } else {
    q.op = OpKind::kSearch;
    for (unsigned k = 0; k < 4; ++k) q.keys.push_back(rng.next_bits(20));
  }
  return q;
}

TEST_F(AllocGuard, EngineBeatPathAllocatesOnlyHandedOverBuffers) {
  // 4-key search beats, a closed loop of 16 outstanding beats. The measured
  // window covers the whole beat path: try_submit, the engine step (shard
  // FIFOs, units, output FIFOs, collection into the reorder buffers) and
  // the reorder-buffer pops. Every payload travels inline, so once warm
  // nothing allocates - not even the results handed to the host.
  constexpr unsigned kKeys = 4;
  constexpr std::size_t kWarmBeats = 2000;
  constexpr std::size_t kMeasuredBeats = 12000;
  constexpr std::size_t kOutstanding = 16;
  system::ShardedCamEngine::Config ec;
  ec.shards = 4;
  ec.credits_per_shard = 64;
  system::ShardedCamEngine engine(ec, sharded_shard_cfg());

  Rng rng(0xE791);
  std::vector<Word> stored(512);
  for (Word& w : stored) w = rng.next_bits(20) << 1;  // even: absent keys are odd
  {
    system::CamDriver drv(engine);
    drv.store(stored);
  }
  std::vector<std::vector<Word>> stored_on(ec.shards);
  for (const Word w : stored) stored_on[engine.shard_of(w)].push_back(w);
  // Warm-up opens with every shard in turn taking all keys of the
  // outstanding beats, so each queue on the path reaches the high-water
  // depth of this loop before anything is measured; random beats follow.
  const std::size_t skewed = ec.shards * 2 * kOutstanding;
  std::vector<UnitRequest> beats(kWarmBeats + kMeasuredBeats);
  for (std::size_t b = 0; b < beats.size(); ++b) {
    beats[b].op = OpKind::kSearch;
    beats[b].seq = b + 1;
    for (unsigned k = 0; k < kKeys; ++k) {
      const auto& hot = stored_on[b / (2 * kOutstanding) % ec.shards];
      const Word key = b < skewed        ? hot[rng.next_below(hot.size())]
                       : rng.next_bool() ? stored[rng.next_below(stored.size())]
                                         : (rng.next_bits(20) << 1 | 1);
      beats[b].keys.push_back(key);
    }
  }

  std::size_t next = 0;
  std::size_t popped = 0;
  std::size_t measured_allocs = 0;
  std::uint64_t hits = 0;
  while (popped < beats.size()) {
    const bool measured = popped >= kWarmBeats;
    const bool ready = next < beats.size() && next - popped < kOutstanding;
    // A refused request is consumed, so submit a copy made outside the
    // measured window.
    UnitRequest req = ready ? beats[next] : UnitRequest{};
    const std::size_t before = g_alloc_count;
    if (ready && engine.try_submit(std::move(req))) ++next;
    engine.step();
    std::optional<UnitResponse> resp = engine.try_pop_response();
    std::optional<UnitUpdateAck> ack = engine.try_pop_ack();
    if (measured) measured_allocs += g_alloc_count - before;
    ASSERT_FALSE(ack.has_value());
    if (resp.has_value()) {
      ASSERT_EQ(resp->seq, popped + 1);
      ASSERT_EQ(resp->results.size(), kKeys);
      for (const auto& r : resp->results) hits += r.hit;
      ++popped;
    }
  }
  EXPECT_GT(hits, 0u) << "search loop produced no hits";
  EXPECT_EQ(measured_allocs, 0u)
      << static_cast<double>(measured_allocs) / kMeasuredBeats
      << " allocations per beat on the engine beat path";
}

/// Runs `rounds` of closed-loop driver turns - submit_async() the ready
/// beats, poll() once, try_pop_completion() everything - over the requests
/// `make(round, i)` builds (pre-built, outside the count), with up to
/// `outstanding` beats in flight and `between(round)` run before each round.
/// Returns the heap allocations of every round after the first `warm`.
template <typename Make, typename Between>
std::size_t measure_driver_rounds(system::CamDriver& drv, std::size_t rounds,
                                  std::size_t warm, std::size_t beats,
                                  std::size_t outstanding, Make make, Between between,
                                  std::uint64_t* checksum) {
  std::vector<UnitRequest> reqs(beats);
  std::vector<system::CamDriver::Completion> done;
  done.reserve(beats);
  std::size_t measured = 0;
  std::uint64_t sum = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < beats; ++i) reqs[i] = make(r, i);
    const std::size_t before = g_alloc_count;
    between(r);
    std::size_t next = 0;
    std::size_t completed = 0;
    while (completed < beats) {
      while (next < beats && next - completed < outstanding) {
        drv.submit_async(std::move(reqs[next++]));
      }
      drv.poll();
      done.clear();
      while (auto c = drv.try_pop_completion()) done.push_back(std::move(*c));
      for (const auto& c : done) {
        for (const auto& res : c.results) sum += res.hit + res.global_address;
        sum += c.words_written;
      }
      completed += done.size();
    }
    if (r >= warm) measured += g_alloc_count - before;
  }
  *checksum = sum;
  return measured;
}

TEST_F(AllocGuard, DriverTurnsAreAllocFreeOnTheBenchShapes) {
  constexpr std::size_t kRounds = 4;
  constexpr std::size_t kWarm = 1;
  constexpr std::size_t kBeats = 3000;
  const auto nothing = [](std::size_t) {};
  {
    // lookup_8k: the 8192 x 32 unit behind an S=1 engine, single-key
    // searches, half of them stored keys.
    UnitConfig u = unit_cfg(32, EncodingScheme::kPriorityIndex, 1);
    u.block.output_buffer = false;
    system::CamSystem::Config sc;
    sc.unit = UnitConfig::with_auto_timing(u);
    system::ShardedCamEngine::Config ec;
    ec.shards = 1;
    system::ShardedCamEngine engine(ec, sc);
    system::CamDriver drv(engine);
    std::vector<Word> stored(sc.unit.total_entries());
    for (std::size_t i = 0; i < stored.size(); ++i) stored[i] = 2 * i;
    ASSERT_EQ(drv.store(stored), stored.size());
    Rng rng(0x100C);
    std::uint64_t sum = 0;
    const std::size_t allocs = measure_driver_rounds(
        drv, kRounds, kWarm, kBeats, 16,
        [&](std::size_t, std::size_t) {
          UnitRequest q;
          q.op = OpKind::kSearch;
          q.keys.push_back(rng.next_below(2 * stored.size()));
          return q;
        },
        nothing, &sum);
    EXPECT_EQ(allocs, 0u) << "lookup_8k shape";
    EXPECT_NE(sum, 0u);
  }
  {
    // sharded_churn: S=4, 4-key searches with an addressed single-word
    // rewrite every 16th beat.
    system::ShardedCamEngine::Config ec;
    ec.shards = 4;
    ec.credits_per_shard = 64;
    system::ShardedCamEngine engine(ec, sharded_shard_cfg());
    system::CamDriver drv(engine);
    Rng rng(0xC4A2);
    std::uint64_t sum = 0;
    const std::size_t allocs = measure_driver_rounds(
        drv, kRounds, kWarm, kBeats, 16,
        [&](std::size_t, std::size_t i) { return churn_beat(rng, engine, i); },
        nothing, &sum);
    EXPECT_EQ(allocs, 0u) << "sharded_churn shape";
    EXPECT_NE(sum, 0u);
  }
  {
    // tc_paper: a bare CamSystem of the case study's geometry; each round
    // regroups to 16 groups, stores a 128-word resident list and streams
    // 16-key search beats against it.
    system::CamSystem::Config sc;
    sc.unit = tc::CamTcAccelerator::Config{}.unit_config();
    system::CamSystem sys(sc);
    system::CamDriver drv(sys);
    std::vector<Word> resident(128);
    Rng rng(0x7C);
    std::uint64_t sum = 0;
    const std::size_t allocs = measure_driver_rounds(
        drv, kRounds, kWarm, kBeats / 4, 16,
        [&](std::size_t, std::size_t) {
          UnitRequest q;
          q.op = OpKind::kSearch;
          for (unsigned k = 0; k < 16; ++k) q.keys.push_back(rng.next_below(512));
          return q;
        },
        [&](std::size_t r) {
          drv.configure_groups(16);
          for (std::size_t i = 0; i < resident.size(); ++i) resident[i] = 3 * i + r;
          ASSERT_EQ(drv.store(resident), resident.size());
        },
        &sum);
    EXPECT_EQ(allocs, 0u) << "tc_paper shape";
    EXPECT_NE(sum, 0u);
  }
  {
    // A 2-deep request FIFO under 16-beat bursts: the beats the backend
    // takes at submit and the refused ones, queued and pumped by poll(),
    // both stay off the heap.
    system::CamSystem::Config sc = sharded_shard_cfg();
    sc.request_fifo_depth = 2;
    system::CamSystem sys(sc);
    system::CamDriver drv(sys);
    std::vector<Word> stored(sys.capacity());
    for (std::size_t i = 0; i < stored.size(); ++i) stored[i] = 5 * i;
    ASSERT_EQ(drv.store(stored), stored.size());
    Rng rng(0xF1F0);
    std::uint64_t sum = 0;
    const std::size_t allocs = measure_driver_rounds(
        drv, kRounds, kWarm, kBeats, 16,
        [&](std::size_t, std::size_t) {
          UnitRequest q;
          q.op = OpKind::kSearch;
          q.keys.push_back(rng.next_below(5 * stored.size()));
          return q;
        },
        nothing, &sum);
    EXPECT_EQ(allocs, 0u) << "2-deep FIFO bursts";
    EXPECT_NE(sum, 0u);
  }
}

TEST_F(AllocGuard, DriverTurnsWithMetricsAttachedAreAllocFree) {
  // The sharded_churn shape with a metric registry attached: each ticket's
  // trace (submit cycle, op) rides in the driver's ring and every
  // completion lands in the latency histograms. snapshot_every is longer
  // than the run, so no snapshot falls inside it and only the per-ticket
  // telemetry work is measured.
  constexpr std::size_t kRounds = 4;
  constexpr std::size_t kBeats = 3000;
  system::ShardedCamEngine::Config ec;
  ec.shards = 4;
  ec.credits_per_shard = 64;
  system::ShardedCamEngine engine(ec, sharded_shard_cfg());
  system::CamDriver drv(engine);
  telemetry::MetricRegistry registry;
  drv.attach_telemetry(&registry, nullptr, /*snapshot_every=*/std::uint64_t{1} << 40);
  Rng rng(0xC4A3);
  std::uint64_t sum = 0;
  const std::size_t allocs = measure_driver_rounds(
      drv, kRounds, /*warm=*/1, kBeats, 16,
      [&](std::size_t, std::size_t i) { return churn_beat(rng, engine, i); },
      [](std::size_t) {}, &sum);
  EXPECT_EQ(allocs, 0u);
  EXPECT_NE(sum, 0u);
  EXPECT_EQ(registry.counter("driver.completed").value(), kRounds * kBeats);
  EXPECT_EQ(registry.histogram("driver.latency_cycles").count(), kRounds * kBeats);
}

}  // namespace
}  // namespace dspcam::cam
