// Multi-key match fusion (DESIGN.md §11): write-barrier-delimited batching
// of queued searches must be a pure scheduling optimization. A fused
// CamSystem (fusion_max_keys B > 1) and an unfused one (B = 1), both on the
// fast eval path, get identical request streams and must stay byte-identical
// on every observable: responses, acks, stats, stored arrays - while the
// fused side demonstrably consumes staged compares. Plus directed tests for
// batch formation, the write-barrier rule, the environment override, and the
// .fusion.* telemetry plane.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/cam/mask.h"
#include "src/cam/match_kernel.h"
#include "src/common/bitops.h"
#include "src/common/random.h"
#include "src/system/cam_system.h"
#include "src/telemetry/metrics.h"

namespace dspcam::system {
namespace {

/// Pins DSPCAM_FUSION_MAX_KEYS for one scope - to a value, or cleared when
/// `value` is nullptr - and restores the caller's setting on exit. Every
/// test that asserts staging activity clears the variable first, so the
/// suite still passes under CI legs that export it globally (the fusion-off
/// escape-hatch leg in particular).
class ScopedFusionEnv {
 public:
  explicit ScopedFusionEnv(const char* value) {
    const char* prev = ::getenv(kVar);
    had_ = prev != nullptr;
    if (had_) saved_ = prev;
    if (value != nullptr) {
      ::setenv(kVar, value, /*overwrite=*/1);
    } else {
      ::unsetenv(kVar);
    }
  }
  ~ScopedFusionEnv() {
    if (had_) {
      ::setenv(kVar, saved_.c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(kVar);
    }
  }
  ScopedFusionEnv(const ScopedFusionEnv&) = delete;
  ScopedFusionEnv& operator=(const ScopedFusionEnv&) = delete;

 private:
  static constexpr const char* kVar = "DSPCAM_FUSION_MAX_KEYS";
  bool had_ = false;
  std::string saved_;
};

struct FusionParams {
  cam::CamKind kind;
  unsigned data_width;
  unsigned unit_size;
  unsigned block_size;
  std::size_t fusion_keys;
  unsigned cycles;
  std::uint64_t seed;
  /// Defaulted so the priority-scheme configs keep their 7-field inits; the
  /// one-hot and match-count configs exercise the staged pre-encoded
  /// (multi_encode_fn) records through every result shape.
  cam::EncodingScheme encoding = cam::EncodingScheme::kPriorityIndex;
};

class FusionLockstep : public ::testing::TestWithParam<FusionParams> {};

CamSystem::Config make_config(
    cam::CamKind kind, unsigned data_width, unsigned unit_size,
    unsigned block_size, std::size_t fusion_keys,
    cam::EncodingScheme encoding = cam::EncodingScheme::kPriorityIndex) {
  CamSystem::Config cfg;
  cfg.unit.block.cell.kind = kind;
  cfg.unit.block.cell.data_width = data_width;
  cfg.unit.block.block_size = block_size;
  cfg.unit.block.bus_width = data_width * 4;
  cfg.unit.block.encoding = encoding;
  cfg.unit.unit_size = unit_size;
  cfg.unit.bus_width = data_width * 4;
  cfg.fusion_max_keys = fusion_keys;
  return cfg;
}

void run(CamSystem& sys, unsigned cycles) {
  for (unsigned i = 0; i < cycles; ++i) sys.step();
}

cam::UnitRequest random_request(Rng& rng, const FusionParams& p,
                                unsigned capacity, std::uint64_t seq) {
  const unsigned value_bits = std::min(p.data_width, 10u);
  cam::UnitRequest req;
  req.seq = seq;
  const double dice = rng.next_double();
  if (dice < 0.004) {
    req.op = cam::OpKind::kReset;
  } else if (dice < 0.03) {
    req.op = cam::OpKind::kInvalidate;
    req.address = static_cast<std::uint32_t>(rng.next_below(capacity));
  } else if (dice < 0.18) {
    req.op = cam::OpKind::kUpdate;
    const unsigned n = 1 + static_cast<unsigned>(rng.next_below(4));
    for (unsigned i = 0; i < n; ++i) {
      const cam::Word v = rng.next_bits(value_bits);
      req.words.push_back(v);
      if (p.kind == cam::CamKind::kTernary) {
        req.masks.push_back(cam::tcam_mask(
            p.data_width, rng.next_bool(0.3) ? low_bits(4) : 0));
      } else if (p.kind == cam::CamKind::kRange) {
        const unsigned span = static_cast<unsigned>(rng.next_below(4));
        req.words.back() = v & ~low_bits(span);
        req.masks.push_back(cam::rmcam_mask(p.data_width, req.words.back(), span));
      }
    }
  } else {
    req.op = cam::OpKind::kSearch;
    req.keys = {rng.next_bits(value_bits)};
  }
  return req;
}

void expect_same_outputs(CamSystem& a, CamSystem& b, unsigned cyc) {
  for (;;) {
    auto ra = a.try_pop_response();
    auto rb = b.try_pop_response();
    ASSERT_EQ(ra.has_value(), rb.has_value()) << "cycle " << cyc;
    if (!ra.has_value()) break;
    ASSERT_EQ(ra->seq, rb->seq) << "cycle " << cyc;
    ASSERT_EQ(ra->results.size(), rb->results.size()) << "cycle " << cyc;
    for (std::size_t i = 0; i < ra->results.size(); ++i) {
      const auto& r = ra->results[i];
      const auto& f = rb->results[i];
      ASSERT_EQ(r.key, f.key) << "cycle " << cyc << " seq " << ra->seq;
      ASSERT_EQ(r.hit, f.hit) << "cycle " << cyc << " seq " << ra->seq;
      ASSERT_EQ(r.global_address, f.global_address)
          << "cycle " << cyc << " seq " << ra->seq;
      ASSERT_EQ(r.match_count, f.match_count)
          << "cycle " << cyc << " seq " << ra->seq;
      ASSERT_EQ(r.group, f.group) << "cycle " << cyc << " seq " << ra->seq;
      ASSERT_EQ(r.parity_error, f.parity_error)
          << "cycle " << cyc << " seq " << ra->seq;
    }
  }
  for (;;) {
    auto aa = a.try_pop_ack();
    auto ab = b.try_pop_ack();
    ASSERT_EQ(aa.has_value(), ab.has_value()) << "cycle " << cyc;
    if (!aa.has_value()) break;
    ASSERT_EQ(aa->seq, ab->seq) << "cycle " << cyc;
    ASSERT_EQ(aa->words_written, ab->words_written) << "cycle " << cyc;
    ASSERT_EQ(aa->unit_full, ab->unit_full) << "cycle " << cyc;
  }
}

void expect_same_arrays(const cam::CamUnit& a, const cam::CamUnit& b) {
  const unsigned blocks = a.config().unit_size;
  const unsigned cells = a.config().block.block_size;
  for (unsigned blk = 0; blk < blocks; ++blk) {
    for (unsigned i = 0; i < cells; ++i) {
      const std::size_t e = static_cast<std::size_t>(blk) * cells + i;
      ASSERT_EQ(a.entry(e).valid, b.entry(e).valid)
          << "block " << blk << " entry " << i;
      ASSERT_EQ(a.entry(e).stored, b.entry(e).stored)
          << "block " << blk << " entry " << i;
      ASSERT_EQ(a.entry(e).mask, b.entry(e).mask)
          << "block " << blk << " entry " << i;
    }
  }
}

TEST_P(FusionLockstep, FusedStreamIsByteIdenticalToUnfused) {
  ScopedFusionEnv ambient(nullptr);  // the params' widths must win
  const auto p = GetParam();
  CamSystem fused(make_config(p.kind, p.data_width, p.unit_size, p.block_size,
                              p.fusion_keys, p.encoding));
  CamSystem plain(make_config(p.kind, p.data_width, p.unit_size, p.block_size, 1,
                              p.encoding));
  ASSERT_EQ(fused.fusion_width(), p.fusion_keys);
  ASSERT_EQ(plain.fusion_width(), 1u);

  Rng rng(p.seed);
  const unsigned capacity = fused.capacity();
  std::uint64_t seq = 1;
  for (unsigned cyc = 0; cyc < p.cycles; ++cyc) {
    // Bursty submission keeps multi-request runs in the FIFO, so batches of
    // every occupancy up to the configured width actually form.
    if (rng.next_bool(0.7)) {
      const unsigned n = 1 + static_cast<unsigned>(rng.next_below(3));
      for (unsigned i = 0; i < n; ++i) {
        cam::UnitRequest req = random_request(rng, p, capacity, seq);
        cam::UnitRequest copy = req;
        const bool a = fused.try_submit(std::move(req));
        const bool b = plain.try_submit(std::move(copy));
        ASSERT_EQ(a, b) << "cycle " << cyc;
        if (a) ++seq;
      }
    }
    fused.step();
    plain.step();
    // Drain every cycle (identically on both sides) so credits keep flowing.
    expect_same_outputs(fused, plain, cyc);
  }
  run(fused, 64);
  run(plain, 64);
  expect_same_outputs(fused, plain, p.cycles);

  // Full stats surface must agree field by field.
  const auto sa = fused.stats();
  const auto sb = plain.stats();
  EXPECT_EQ(sa.issued, sb.issued);
  EXPECT_EQ(sa.responses, sb.responses);
  EXPECT_EQ(sa.acks, sb.acks);
  EXPECT_EQ(sa.keys_searched, sb.keys_searched);
  EXPECT_EQ(sa.hits, sb.hits);
  EXPECT_EQ(sa.parity_flagged, sb.parity_flagged);
  expect_same_arrays(fused.unit(), plain.unit());

  // The equivalence must not be vacuous: the fused side really fused.
  EXPECT_GT(fused.fusion_batches(), 0u) << "stream never formed a batch";
  EXPECT_GT(fused.unit().fused_hits(), 0u) << "staged compares never consumed";
  EXPECT_GT(fused.fusion_barrier_breaks(), 0u) << "stream had no write barriers";
  EXPECT_EQ(plain.fusion_batches(), 0u);
  EXPECT_EQ(plain.unit().fused_staged(), 0u);
}

// Constant-initialised, so the struct padding is zero: ctest names each case
// after the byte dump of its parameter, and stack garbage in the padding
// would give the cases new names on every build.
constexpr FusionParams kFusionConfigs[] = {
    // Binary 32-bit (eq32 family) at every supported batch width.
    FusionParams{cam::CamKind::kBinary, 32, 4, 32, 2, 3000, 11},
    FusionParams{cam::CamKind::kBinary, 32, 4, 32, 4, 3000, 22},
    FusionParams{cam::CamKind::kBinary, 32, 4, 32, 8, 3000, 33},
    // Ternary (masked family) and range kinds at full width.
    FusionParams{cam::CamKind::kTernary, 16, 4, 32, 8, 2500, 44},
    FusionParams{cam::CamKind::kRange, 16, 4, 32, 8, 2500, 55},
    // 48-bit binary: the full-width eq64 kernel family.
    FusionParams{cam::CamKind::kBinary, 48, 2, 64, 8, 2500, 66},
    // One-hot and match-count encodings at the 64/256-deep
    // geometries: staged records carry pre-encoded results
    // (multi_encode_fn) and must stay byte-identical to the unfused
    // stream under every scheme (>= 15k lockstep cycles per scheme).
    FusionParams{cam::CamKind::kBinary, 32, 2, 256, 8, 4000, 77,
                 cam::EncodingScheme::kOneHot},
    FusionParams{cam::CamKind::kTernary, 16, 2, 256, 8, 4000, 88,
                 cam::EncodingScheme::kOneHot},
    FusionParams{cam::CamKind::kRange, 32, 4, 64, 8, 4000, 99,
                 cam::EncodingScheme::kOneHot},
    FusionParams{cam::CamKind::kBinary, 48, 2, 64, 4, 3500, 111,
                 cam::EncodingScheme::kOneHot},
    FusionParams{cam::CamKind::kBinary, 32, 2, 256, 8, 4000, 222,
                 cam::EncodingScheme::kMatchCount},
    FusionParams{cam::CamKind::kTernary, 32, 2, 64, 8, 4000, 333,
                 cam::EncodingScheme::kMatchCount},
    FusionParams{cam::CamKind::kRange, 16, 2, 256, 4, 4000, 444,
                 cam::EncodingScheme::kMatchCount},
    FusionParams{cam::CamKind::kBinary, 32, 4, 32, 8, 3500, 555,
                 cam::EncodingScheme::kMatchCount},
};

INSTANTIATE_TEST_SUITE_P(Widths, FusionLockstep,
                         ::testing::ValuesIn(kFusionConfigs));

TEST(FusionBarrier, WriteClassRequestsDelimitBatches) {
  ScopedFusionEnv ambient(nullptr);
  CamSystem sys(make_config(cam::CamKind::kBinary, 32, 2, 32, 8));
  ASSERT_EQ(sys.fusion_width(), 8u);

  // Load phase: the update pop is itself a barrier event (count = 1).
  cam::UnitRequest load;
  load.op = cam::OpKind::kUpdate;
  load.words = {10, 20, 30, 40};
  ASSERT_TRUE(sys.try_submit(std::move(load)));
  run(sys, 16);
  ASSERT_TRUE(sys.try_pop_ack().has_value());
  EXPECT_EQ(sys.fusion_barrier_breaks(), 1u);
  EXPECT_EQ(sys.fusion_batches(), 0u);

  // Three searches then a write: the scan must stop at the barrier and
  // stage exactly the leading run of three.
  std::uint64_t seq = 100;
  for (cam::Word k : {cam::Word{10}, cam::Word{77}, cam::Word{30}}) {
    cam::UnitRequest s;
    s.op = cam::OpKind::kSearch;
    s.keys = {k};
    s.seq = seq++;
    ASSERT_TRUE(sys.try_submit(std::move(s)));
  }
  cam::UnitRequest upd;
  upd.op = cam::OpKind::kUpdate;
  upd.words = {50};
  upd.seq = seq++;
  ASSERT_TRUE(sys.try_submit(std::move(upd)));
  run(sys, 24);
  const std::uint64_t blocks = sys.unit().blocks_per_group(0);
  EXPECT_EQ(sys.fusion_batches(), 1u);
  EXPECT_EQ(sys.unit().fused_staged(), 3u * blocks);
  EXPECT_EQ(sys.unit().fused_hits(), sys.unit().fused_staged())
      << "every staged compare should have been consumed";
  EXPECT_EQ(sys.unit().fused_discards(), 0u);
  EXPECT_EQ(sys.fusion_barrier_breaks(), 2u);

  // The staged batch must have produced correct results.
  std::vector<bool> hits;
  while (auto r = sys.try_pop_response()) hits.push_back(r->results[0].hit);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_TRUE(hits[0]);   // 10 stored
  EXPECT_FALSE(hits[1]);  // 77 absent
  EXPECT_TRUE(hits[2]);   // 30 stored

  // A trailing pair fuses once the write has drained; a lone search never
  // forms a batch (nothing to amortize).
  const std::uint64_t staged_before = sys.unit().fused_staged();
  for (cam::Word k : {cam::Word{40}, cam::Word{50}}) {
    cam::UnitRequest s;
    s.op = cam::OpKind::kSearch;
    s.keys = {k};
    s.seq = seq++;
    ASSERT_TRUE(sys.try_submit(std::move(s)));
  }
  run(sys, 24);
  EXPECT_EQ(sys.fusion_batches(), 2u);
  EXPECT_EQ(sys.unit().fused_staged(), staged_before + 2u * blocks);

  cam::UnitRequest lone;
  lone.op = cam::OpKind::kSearch;
  lone.keys = {10};
  lone.seq = seq++;
  ASSERT_TRUE(sys.try_submit(std::move(lone)));
  run(sys, 16);
  EXPECT_EQ(sys.fusion_batches(), 2u) << "a batch of one gains nothing";
}

TEST(FusionEnvOverride, EnvironmentOverridesAndClampsTheConfiguredWidth) {
  ScopedFusionEnv ambient(nullptr);  // the sections below own the variable
  const auto cfg = make_config(cam::CamKind::kBinary, 32, 2, 32, 6);
  {
    ScopedFusionEnv env("4");
    EXPECT_EQ(CamSystem(cfg).fusion_width(), 4u);
  }
  {
    // Values beyond the kernel contract clamp to kMaxFusionKeys.
    ScopedFusionEnv env("64");
    EXPECT_EQ(CamSystem(cfg).fusion_width(), cam::kMaxFusionKeys);
  }
  {
    // The escape hatch: 1 (or 0, clamped up) disables fusion entirely.
    ScopedFusionEnv env("1");
    CamSystem sys(cfg);
    EXPECT_EQ(sys.fusion_width(), 1u);
    cam::UnitRequest a, b;
    a.op = b.op = cam::OpKind::kSearch;
    a.keys = {1};
    b.keys = {2};
    ASSERT_TRUE(sys.try_submit(std::move(a)));
    ASSERT_TRUE(sys.try_submit(std::move(b)));
    run(sys, 16);
    EXPECT_EQ(sys.fusion_batches(), 0u);
    EXPECT_EQ(sys.unit().fused_staged(), 0u);
  }
  {
    ScopedFusionEnv env("0");
    EXPECT_EQ(CamSystem(cfg).fusion_width(), 1u);
  }
  {
    // Unparseable values fall back to the configured width.
    ScopedFusionEnv env("not-a-number");
    EXPECT_EQ(CamSystem(cfg).fusion_width(), 6u);
  }
  // No override: the config value, clamped.
  EXPECT_EQ(CamSystem(cfg).fusion_width(), 6u);
  auto wide = cfg;
  wide.fusion_max_keys = 99;
  EXPECT_EQ(CamSystem(wide).fusion_width(), cam::kMaxFusionKeys);

  // The reference path has no packed arrays to sweep: always width 1.
  auto ref = cfg;
  ref.unit.block.eval_mode = cam::EvalMode::kReference;
  ScopedFusionEnv env("8");
  EXPECT_EQ(CamSystem(ref).fusion_width(), 1u);
}

TEST(FusionTelemetry, FusionPlaneIsPublishedAndIdempotent) {
  ScopedFusionEnv ambient(nullptr);
  CamSystem sys(make_config(cam::CamKind::kBinary, 32, 2, 32, 8));
  cam::UnitRequest load;
  load.op = cam::OpKind::kUpdate;
  load.words = {1, 2, 3, 4};
  ASSERT_TRUE(sys.try_submit(std::move(load)));
  run(sys, 16);
  for (unsigned i = 0; i < 12; ++i) {
    cam::UnitRequest s;
    s.op = cam::OpKind::kSearch;
    s.keys = {i};
    s.seq = i;
    ASSERT_TRUE(sys.try_submit(std::move(s)));
  }
  run(sys, 48);
  ASSERT_GT(sys.fusion_batches(), 0u);

  telemetry::MetricRegistry reg;
  sys.record_telemetry(reg, "sys");
  const auto* width = reg.find_gauge("sys.fusion.width");
  ASSERT_NE(width, nullptr);
  EXPECT_EQ(width->value(), 8);
  const auto* staged = reg.find_counter("sys.fusion.staged");
  const auto* hits = reg.find_counter("sys.fusion.hits");
  const auto* breaks = reg.find_counter("sys.fusion.barrier_breaks");
  ASSERT_NE(staged, nullptr);
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(breaks, nullptr);
  EXPECT_EQ(staged->value(), sys.unit().fused_staged());
  EXPECT_EQ(hits->value(), sys.unit().fused_hits());
  EXPECT_EQ(breaks->value(), sys.fusion_barrier_breaks());
  const auto* occ = reg.find_histogram("sys.fusion.batch_occupancy");
  ASSERT_NE(occ, nullptr);
  EXPECT_EQ(occ->count(), sys.fusion_batches());
  EXPECT_GE(occ->min(), 2u) << "batches of one must never be recorded";
  EXPECT_LE(occ->max(), 8u);

  // Pull-model republication is idempotent, and a registry reset between
  // publications is healed by the next one.
  sys.record_telemetry(reg, "sys");
  EXPECT_EQ(reg.find_counter("sys.fusion.staged")->value(),
            sys.unit().fused_staged());
  EXPECT_EQ(reg.find_histogram("sys.fusion.batch_occupancy")->count(),
            sys.fusion_batches());
  reg.reset();
  sys.record_telemetry(reg, "sys");
  EXPECT_EQ(reg.find_counter("sys.fusion.staged")->value(),
            sys.unit().fused_staged());
  EXPECT_EQ(reg.find_histogram("sys.fusion.batch_occupancy")->count(),
            sys.fusion_batches());
}

}  // namespace
}  // namespace dspcam::system
