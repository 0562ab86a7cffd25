// Steady-state allocation guard for the fast search path (DESIGN.md §14).
//
// The fused sweep→encode plane exists so a streaming search workload never
// touches the heap once warm: kernels write into preallocated scratch, the
// one-hot raw buffer rotates through a pool, and responses move (never
// copy) through the output register. This binary replaces the global
// operator new/delete with counting versions and asserts the delta over a
// steady-state search loop is exactly zero - on a standalone block and on
// a whole unit (its group planes re-sliced by configure_groups between
// rounds), for the fused sweep, the masked kernels, the exact-match index
// (its table is sized at first use, then reused through every rebuild) and
// the force-generic kernels, under every encoding scheme. One level up, it
// bounds what a ShardedCamEngine search beat may allocate on its way in and
// pins its reorder-buffer pops at zero.
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

#include "src/cam/block.h"
#include "src/cam/unit.h"
#include "src/common/random.h"
#include "src/system/driver.h"
#include "src/system/sharded_engine.h"
#include "tests/cam/testbench.h"

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

void* operator new(std::size_t n) {
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
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

constexpr std::size_t kWarmup = 64;
constexpr std::size_t kMeasure = 512;

BlockConfig steady_cfg(CamKind kind, unsigned width, unsigned size,
                       EncodingScheme scheme, bool buffered) {
  BlockConfig cfg;
  cfg.cell.kind = kind;
  cfg.cell.data_width = width;
  cfg.block_size = size;
  cfg.bus_width = 512;
  cfg.eval_mode = EvalMode::kFast;
  cfg.encoding = scheme;
  cfg.output_buffer = buffered;
  return cfg;
}

/// Runs a streaming search loop and returns the number of heap allocations
/// observed during the measured (post-warmup) cycles.
std::size_t measure_steady_state(const BlockConfig& cfg, std::uint64_t* checksum) {
  CamBlock block(cfg);
  Rng rng(0xA110C ^ cfg.block_size ^ static_cast<unsigned>(cfg.encoding));
  std::vector<Word> values(cfg.block_size / 2);
  for (Word& v : values) v = rng.next_bits(6);
  test::load_block(block, values);

  // Pre-built key schedule: the loop itself must not construct anything.
  std::vector<Word> keys(kWarmup + kMeasure);
  for (Word& k : keys) k = rng.next_bits(6);

  std::uint64_t sum = 0;
  std::size_t measured_allocs = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t before = g_alloc_count;
    BlockRequest req;
    req.op = OpKind::kSearch;
    req.key = keys[i];
    req.tag.seq = i;
    block.issue(std::move(req));
    block.eval();
    block.commit();
    if (block.response().has_value()) {
      const BlockResponse& r = *block.response();
      sum += r.hit + r.first_match + r.match_count + r.raw.count();
    }
    if (i >= kWarmup) measured_allocs += g_alloc_count - before;
  }
  // Drain the pipeline (outside the measured window).
  for (unsigned i = 0; i < 8; ++i) {
    block.eval();
    block.commit();
    if (block.response().has_value()) sum += block.response()->hit;
  }
  *checksum = sum;
  return measured_allocs;
}

class AllocGuard : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(DSPCAM_ALLOC_GUARD_DISABLED)
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
  }
};

TEST_F(AllocGuard, FusedEncodePathIsAllocFreeAllSchemes) {
  for (const EncodingScheme scheme :
       {EncodingScheme::kPriorityIndex, EncodingScheme::kOneHot,
        EncodingScheme::kMatchCount}) {
    for (const bool buffered : {false, true}) {
      std::uint64_t sum = 0;
      const std::size_t allocs = measure_steady_state(
          steady_cfg(CamKind::kBinary, 32, 256, scheme, buffered), &sum);
      EXPECT_EQ(allocs, 0u) << "scheme " << static_cast<int>(scheme)
                            << " buffered " << buffered;
      EXPECT_NE(sum, 0u) << "search loop produced no responses";
    }
  }
}

TEST_F(AllocGuard, MaskedKernelsAreAllocFree) {
  for (const EncodingScheme scheme :
       {EncodingScheme::kPriorityIndex, EncodingScheme::kOneHot,
        EncodingScheme::kMatchCount}) {
    std::uint64_t sum = 0;
    const std::size_t allocs = measure_steady_state(
        steady_cfg(CamKind::kTernary, 32, 256, scheme, /*buffered=*/true), &sum);
    EXPECT_EQ(allocs, 0u) << "scheme " << static_cast<int>(scheme);
  }
}

TEST_F(AllocGuard, LegacyForceGenericPathIsAllocFree) {
  // force_generic_kernel pins the generic kernels, which run the
  // same fused encode path as every other kernel.
  for (const EncodingScheme scheme :
       {EncodingScheme::kPriorityIndex, EncodingScheme::kOneHot,
        EncodingScheme::kMatchCount}) {
    auto cfg = steady_cfg(CamKind::kBinary, 32, 256, scheme, /*buffered=*/true);
    cfg.force_generic_kernel = true;
    std::uint64_t sum = 0;
    const std::size_t allocs = measure_steady_state(cfg, &sum);
    EXPECT_EQ(allocs, 0u) << "scheme " << static_cast<int>(scheme);
  }
}

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
  struct Shape {
    EncodingScheme scheme;
    unsigned groups;
  };
  // The lookup_8k shape (32 x 256, one group, priority) and a 4-group
  // one-hot unit, each on the registry's kernels (their planes indexed)
  // and on the force-generic kernels (their planes swept).
  for (const Shape shape : {Shape{EncodingScheme::kPriorityIndex, 1},
                            Shape{EncodingScheme::kOneHot, 4}}) {
    for (const bool force_generic : {false, true}) {
      UnitConfig cfg = unit_cfg(32, shape.scheme, shape.groups);
      cfg.block.force_generic_kernel = force_generic;
      std::uint64_t sum = 0;
      const std::vector<unsigned> rounds(3, shape.groups);
      const std::size_t allocs =
          measure_unit_rounds(cfg, rounds, /*warm=*/1, /*churn=*/false, &sum);
      EXPECT_EQ(allocs, 0u) << "scheme " << static_cast<int>(shape.scheme)
                            << " generic " << force_generic;
      EXPECT_NE(sum, 0u) << "search loop produced no hits";
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

/// Steady-state heap traffic of a ShardedCamEngine beat path, averaged
/// over the measured beats.
struct EngineAllocs {
  std::size_t beats = 0;         ///< Measured accepted beats.
  std::size_t submit = 0;        ///< Inside try_submit (accepted or not).
  std::size_t submit_bound = 0;  ///< Sum over measured beats of live subs + 1.
  std::size_t pop = 0;           ///< Inside try_pop_response/try_pop_ack.
};

TEST_F(AllocGuard, EngineBeatPathAllocatesOnlyHandedOverBuffers) {
  // The sharded e2e geometry: S=4 hash-sharded CamSystems of 16 blocks x
  // 16 cells (one group, so one lane per shard), 4-key search beats, a
  // closed loop of 16 outstanding beats.
  constexpr unsigned kKeys = 4;
  constexpr std::size_t kWarmBeats = 2000;
  constexpr std::size_t kMeasuredBeats = 12000;
  constexpr std::size_t kOutstanding = 16;
  system::CamSystem::Config sc;
  sc.unit.block = steady_cfg(CamKind::kBinary, 32, 16, EncodingScheme::kPriorityIndex,
                             /*buffered=*/false);
  sc.unit.unit_size = 16;
  sc.unit.bus_width = 512;
  system::ShardedCamEngine::Config ec;
  ec.shards = 4;
  ec.credits_per_shard = 64;
  system::ShardedCamEngine engine(ec, sc);

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
  std::vector<std::size_t> live_subs(beats.size());
  for (std::size_t b = 0; b < beats.size(); ++b) {
    beats[b].op = OpKind::kSearch;
    beats[b].seq = b + 1;
    std::vector<unsigned> per_shard(ec.shards, 0);
    for (unsigned k = 0; k < kKeys; ++k) {
      const auto& hot = stored_on[b / (2 * kOutstanding) % ec.shards];
      const Word key = b < skewed        ? hot[rng.next_below(hot.size())]
                       : rng.next_bool() ? stored[rng.next_below(stored.size())]
                                         : (rng.next_bits(20) << 1 | 1);
      beats[b].keys.push_back(key);
      ++per_shard[engine.shard_of(key)];
    }
    for (unsigned s = 0; s < ec.shards; ++s) {
      const unsigned lanes = engine.shard(s).max_keys_per_beat();
      live_subs[b] += (per_shard[s] + lanes - 1) / lanes;
    }
  }

  EngineAllocs a;
  std::size_t next = 0;
  std::size_t popped = 0;
  std::uint64_t hits = 0;
  while (popped < beats.size()) {
    const bool measured = next >= kWarmBeats;
    if (next < beats.size() && next - popped < kOutstanding) {
      UnitRequest req = beats[next];  // the copy is the caller's, not the engine's
      const std::size_t before = g_alloc_count;
      const bool ok = engine.try_submit(std::move(req));
      if (measured) a.submit += g_alloc_count - before;
      if (ok) {
        if (measured) {
          ++a.beats;
          a.submit_bound += live_subs[next] + 1;
        }
        ++next;
      }
    }
    engine.step();
    const std::size_t before = g_alloc_count;
    std::optional<UnitResponse> resp = engine.try_pop_response();
    std::optional<UnitUpdateAck> ack = engine.try_pop_ack();
    if (measured) a.pop += g_alloc_count - before;
    ASSERT_FALSE(ack.has_value());
    if (resp.has_value()) {
      ASSERT_EQ(resp->seq, popped + 1);
      for (const auto& r : resp->results) hits += r.hit;
      ++popped;
    }
  }
  ASSERT_EQ(a.beats, kMeasuredBeats);
  EXPECT_GT(hits, 0u) << "search loop produced no hits";
  EXPECT_LE(a.submit, a.submit_bound)
      << "try_submit: " << static_cast<double>(a.submit) / a.beats
      << " allocations per beat; allowed: one key vector per live sub-request "
         "plus the result vector ("
      << static_cast<double>(a.submit_bound) / a.beats << " per beat)";
  EXPECT_EQ(a.pop, 0u) << "reorder-buffer pops must not allocate";
}

}  // namespace
}  // namespace dspcam::cam
