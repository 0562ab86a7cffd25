// System-level fast-vs-reference lockstep: two CamSystems differing only in
// EvalMode - the packed fast planes (swept or, on deep binary planes,
// answered from the exact-match index, DESIGN.md §11) against the per-cell
// DSP48E2 models - get identical bursty request streams through their
// interface FIFOs and must stay byte-identical on every observable:
// responses, acks, stored arrays and, every cycle, the full Stats (gated
// and stall cycles included) and the unit's idle / quiescent state and
// active-block count, under every CAM kind and encoding scheme. Sparse rows
// submit on a few percent of cycles, so most edges have nothing due, and
// script one reset inside an idle stretch and one that lands mid-search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/cam/mask.h"
#include "src/common/bitops.h"
#include "src/common/random.h"
#include "src/system/cam_system.h"

namespace dspcam::system {
namespace {

struct LockstepParams {
  cam::CamKind kind;
  unsigned data_width;
  unsigned unit_size;
  unsigned block_size;
  unsigned cycles;
  std::uint64_t seed;
  cam::EncodingScheme encoding = cam::EncodingScheme::kPriorityIndex;
  double submit_rate = 0.7;  ///< Chance a cycle submits a burst.
  unsigned max_burst = 3;    ///< Requests per burst: 1..max_burst.
  bool output_buffer = false;
};

/// Sparse traffic: most edges have no beat due anywhere in the unit.
bool sparse(const LockstepParams& p) { return p.submit_rate < 0.1; }

class SystemLockstep : public ::testing::TestWithParam<LockstepParams> {};

/// Readable name of one row, e.g. "BCAM32_2x256_one_hot_s77": the ctest
/// name suffix, and what gtest prints for the parameter.
std::string row_name(const LockstepParams& p) {
  std::string scheme = cam::to_string(p.encoding);
  std::replace(scheme.begin(), scheme.end(), '-', '_');  // gtest names: [A-Za-z0-9_]
  return cam::to_string(p.kind) + std::to_string(p.data_width) + "_" +
         std::to_string(p.unit_size) + "x" + std::to_string(p.block_size) + "_" + scheme +
         (p.output_buffer ? "_buf" : "") + (sparse(p) ? "_sparse" : "") + "_s" +
         std::to_string(p.seed);
}

std::string lockstep_name(const ::testing::TestParamInfo<LockstepParams>& info) {
  return row_name(info.param);
}

void PrintTo(const LockstepParams& p, std::ostream* os) { *os << row_name(p); }

CamSystem::Config make_config(const LockstepParams& p, cam::EvalMode mode) {
  CamSystem::Config cfg;
  cfg.unit.block.cell.kind = p.kind;
  cfg.unit.block.cell.data_width = p.data_width;
  cfg.unit.block.block_size = p.block_size;
  cfg.unit.block.bus_width = p.data_width * 4;
  cfg.unit.block.encoding = p.encoding;
  cfg.unit.block.output_buffer = p.output_buffer;
  cfg.unit.eval_mode = mode;
  cfg.unit.unit_size = p.unit_size;
  cfg.unit.bus_width = p.data_width * 4;
  return cfg;
}

void run(CamSystem& sys, unsigned cycles) {
  for (unsigned i = 0; i < cycles; ++i) sys.step();
}

cam::UnitRequest random_request(Rng& rng, const LockstepParams& p,
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

/// Drains both systems' outputs and compares them; appends the response
/// sequence numbers to `seqs` when given.
void expect_same_outputs(CamSystem& a, CamSystem& b, unsigned cyc,
                         std::vector<std::uint64_t>* seqs = nullptr) {
  for (;;) {
    auto ra = a.try_pop_response();
    auto rb = b.try_pop_response();
    ASSERT_EQ(ra.has_value(), rb.has_value()) << "cycle " << cyc;
    if (!ra.has_value()) break;
    if (seqs != nullptr) seqs->push_back(ra->seq);
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

void expect_same_stats(const CamBackend::Stats& a, const CamBackend::Stats& b,
                       unsigned cyc) {
  EXPECT_EQ(a.cycles, b.cycles) << "cycle " << cyc;
  EXPECT_EQ(a.issued, b.issued) << "cycle " << cyc;
  EXPECT_EQ(a.stall_cycles, b.stall_cycles) << "cycle " << cyc;
  EXPECT_EQ(a.responses, b.responses) << "cycle " << cyc;
  EXPECT_EQ(a.acks, b.acks) << "cycle " << cyc;
  EXPECT_EQ(a.parity_flagged, b.parity_flagged) << "cycle " << cyc;
  EXPECT_EQ(a.keys_searched, b.keys_searched) << "cycle " << cyc;
  EXPECT_EQ(a.hits, b.hits) << "cycle " << cyc;
  EXPECT_EQ(a.gated_cycles, b.gated_cycles) << "cycle " << cyc;
}

/// Per-cycle state the two eval modes must share beyond their outputs.
void expect_same_state(const CamSystem& a, const CamSystem& b, unsigned cyc) {
  expect_same_stats(a.stats(), b.stats(), cyc);
  EXPECT_EQ(a.idle(), b.idle()) << "cycle " << cyc;
  EXPECT_EQ(a.unit().idle(), b.unit().idle()) << "cycle " << cyc;
  EXPECT_EQ(a.unit().quiescent(), b.unit().quiescent()) << "cycle " << cyc;
  EXPECT_EQ(a.unit().active_block_count(), b.unit().active_block_count())
      << "cycle " << cyc;
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

TEST_P(SystemLockstep, FastStreamIsByteIdenticalToReference) {
  const auto p = GetParam();
  CamSystem fast(make_config(p, cam::EvalMode::kFast));
  CamSystem ref(make_config(p, cam::EvalMode::kReference));

  Rng rng(p.seed);
  const unsigned capacity = fast.capacity();
  std::uint64_t seq = 1;
  const auto submit = [&](cam::UnitRequest req, unsigned cyc) {
    cam::UnitRequest copy = req;
    const bool a = fast.try_submit(std::move(req));
    const bool b = ref.try_submit(std::move(copy));
    EXPECT_EQ(a, b) << "cycle " << cyc;
    if (a) ++seq;
    return a;
  };
  // Sparse rows script two resets: one inside an idle stretch, and one
  // issued the cycle after a lone search, so it dispatches while that
  // search is in flight and flushes it (no response may appear).
  unsigned idle_run = 0;
  bool idle_reset = false;
  std::uint64_t flushed_seq = 0;
  bool flush_pending = false;
  unsigned seen_flushed = 0;
  for (unsigned cyc = 0; cyc < p.cycles; ++cyc) {
    cam::UnitRequest reset;
    reset.op = cam::OpKind::kReset;
    if (flush_pending) {
      reset.seq = seq;
      ASSERT_TRUE(submit(reset, cyc));
      flush_pending = false;
    } else if (sparse(p) && !idle_reset && cyc >= p.cycles / 3 && idle_run >= 8) {
      reset.seq = seq;
      ASSERT_TRUE(submit(reset, cyc));
      idle_reset = true;
    } else if (sparse(p) && flushed_seq == 0 && cyc >= 2 * p.cycles / 3 && idle_run >= 8) {
      cam::UnitRequest search;
      search.op = cam::OpKind::kSearch;
      search.keys = {0};
      search.seq = flushed_seq = seq;
      ASSERT_TRUE(submit(search, cyc));
      flush_pending = true;
    } else if (rng.next_bool(p.submit_rate)) {
      // Bursty submission keeps multi-request runs queued in the FIFOs, so
      // the credit/backpressure paths are exercised too.
      const unsigned n = 1 + static_cast<unsigned>(rng.next_below(p.max_burst));
      for (unsigned i = 0; i < n; ++i) {
        submit(random_request(rng, p, capacity, seq), cyc);
      }
    }
    fast.step();
    ref.step();
    // Drain every cycle (identically on both sides) so credits keep flowing.
    std::vector<std::uint64_t> seqs;
    expect_same_outputs(fast, ref, cyc, &seqs);
    seen_flushed += std::count(seqs.begin(), seqs.end(), flushed_seq);
    expect_same_state(fast, ref, cyc);
    if (::testing::Test::HasFailure()) return;
    idle_run = fast.idle() ? idle_run + 1 : 0;
  }
  run(fast, 64);
  run(ref, 64);
  expect_same_outputs(fast, ref, p.cycles);
  expect_same_state(fast, ref, p.cycles);
  expect_same_arrays(fast.unit(), ref.unit());
  const auto sa = fast.stats();
  EXPECT_GT(sa.hits, 0u) << "stream never hit";
  if (sparse(p)) {
    EXPECT_TRUE(idle_reset) << "no idle stretch took the scripted reset";
    EXPECT_NE(flushed_seq, 0u) << "the mid-search reset was never scripted";
    EXPECT_EQ(seen_flushed, 0u) << "the reset did not flush the search in flight";
    EXPECT_GT(sa.gated_cycles, sa.cycles / 2) << "sparse stream was rarely gated";
  }
}

// Every CAM kind under every encoding scheme. The binary 2x256 rows answer
// from the exact-match index; the rest sweep.
constexpr LockstepParams kLockstepConfigs[] = {
    // Binary 32-bit (eq32 family).
    LockstepParams{cam::CamKind::kBinary, 32, 4, 32, 3000, 11},
    LockstepParams{cam::CamKind::kBinary, 32, 4, 32, 3000, 22},
    LockstepParams{cam::CamKind::kBinary, 32, 4, 32, 3000, 33},
    // Ternary (masked family) and range kinds.
    LockstepParams{cam::CamKind::kTernary, 16, 4, 32, 2500, 44},
    LockstepParams{cam::CamKind::kRange, 16, 4, 32, 2500, 55},
    // 48-bit binary: the full-width eq64 kernel family.
    LockstepParams{cam::CamKind::kBinary, 48, 2, 64, 2500, 66},
    // One-hot and match-count encodings at the 64/256-deep geometries.
    LockstepParams{cam::CamKind::kBinary, 32, 2, 256, 4000, 77,
                   cam::EncodingScheme::kOneHot},
    LockstepParams{cam::CamKind::kTernary, 16, 2, 256, 4000, 88,
                   cam::EncodingScheme::kOneHot},
    LockstepParams{cam::CamKind::kRange, 32, 4, 64, 4000, 99,
                   cam::EncodingScheme::kOneHot},
    LockstepParams{cam::CamKind::kBinary, 48, 2, 64, 3500, 111,
                   cam::EncodingScheme::kOneHot},
    LockstepParams{cam::CamKind::kBinary, 32, 2, 256, 4000, 222,
                   cam::EncodingScheme::kMatchCount},
    LockstepParams{cam::CamKind::kTernary, 32, 2, 64, 4000, 333,
                   cam::EncodingScheme::kMatchCount},
    LockstepParams{cam::CamKind::kRange, 16, 2, 256, 4000, 444,
                   cam::EncodingScheme::kMatchCount},
    LockstepParams{cam::CamKind::kBinary, 32, 4, 32, 3500, 555,
                   cam::EncodingScheme::kMatchCount},
    // Sparse bursty traffic (3-5% of cycles submit, up to 6 requests at
    // once): long idle gaps between short bursts, both pipeline depths.
    LockstepParams{.kind = cam::CamKind::kBinary, .data_width = 32, .unit_size = 4,
                   .block_size = 32, .cycles = 8000, .seed = 601,
                   .submit_rate = 0.04, .max_burst = 6},
    LockstepParams{.kind = cam::CamKind::kBinary, .data_width = 32, .unit_size = 4,
                   .block_size = 64, .cycles = 8000, .seed = 602,
                   .submit_rate = 0.05, .max_burst = 6, .output_buffer = true},
    LockstepParams{.kind = cam::CamKind::kTernary, .data_width = 16, .unit_size = 2,
                   .block_size = 256, .cycles = 8000, .seed = 603,
                   .encoding = cam::EncodingScheme::kOneHot, .submit_rate = 0.03,
                   .max_burst = 6},
    LockstepParams{.kind = cam::CamKind::kRange, .data_width = 16, .unit_size = 4,
                   .block_size = 32, .cycles = 8000, .seed = 604,
                   .encoding = cam::EncodingScheme::kMatchCount, .submit_rate = 0.04,
                   .max_burst = 6, .output_buffer = true},
    LockstepParams{.kind = cam::CamKind::kBinary, .data_width = 32, .unit_size = 2,
                   .block_size = 256, .cycles = 8000, .seed = 605,
                   .encoding = cam::EncodingScheme::kMatchCount, .submit_rate = 0.05,
                   .max_burst = 6},
};

INSTANTIATE_TEST_SUITE_P(Shapes, SystemLockstep, ::testing::ValuesIn(kLockstepConfigs),
                         lockstep_name);

}  // namespace
}  // namespace dspcam::system
