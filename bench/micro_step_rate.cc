// Simulation-engine step-rate microbenchmark (host performance, not FPGA
// performance): how many simulated cycles and searches per host second the
// two evaluation paths sustain, and what the host-side add-ons cost.
//
//   part 1  reference vs fast CamUnit on a saturating search stream at
//           {16x16, 64x64, 256x64} (blocks x cells/block) BCAM and a 64x64
//           TCAM. Every BCAM plane holds at least 256 entries, so those fast
//           rows measure the exact-match index plus activity gating; the
//           TCAM row's 4096-entry plane is swept by the match kernel. The
//           "kernel" label says which one answered.
//   part 3  telemetry overhead: a 4-shard ShardedCamEngine search stream
//           bare, with the metric registry + sampled span tracer attached,
//           and with the health rule pack + flight recorder on top, run
//           back to back in every repetition. Each row's relative_rate is
//           the median of the per-rep ratios against the bare run
//           (acceptance: within 10%), with their p25..p75 beside it. The
//           telemetry row carries the registry snapshot under "telemetry".
//   part 7  fused sweep->encode ablation (kernel level, DESIGN.md §14): the
//           registry's sweep's legacy path (raw sweep -> valid-AND into a
//           BitVec -> encode_match_lines) against its fused encode_fn, per
//           encoding scheme, at 64- and 256-cell depths.
//           kind:"encode" rows carry the paired-ratio speedup_vs_unfused;
//           the 256-deep rows are the headline figure (>= 1.3x median).
//
// Parts 2 (shard_scaling), 4 (horizon), 5 (specialized-vs-generic match
// kernels) and 6 (multi-key match fusion) measured mechanisms that are
// gone; the remaining parts keep their numbers so references to them stay
// valid.
//
// Flags: --warmup N --repeat N --json <path>   (default path
// BENCH_step_rate.json so CI always collects the artifact).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cam/encoder.h"
#include "src/cam/match_kernel.h"
#include "src/common/bitvec.h"
#include "src/cam/unit.h"
#include "src/system/cam_system.h"
#include "src/system/driver.h"
#include "src/system/sharded_engine.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/health.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"

namespace {

using namespace dspcam;
using Clock = std::chrono::steady_clock;

struct Rate {
  double cycles_per_sec = 0;
  double searches_per_sec = 0;
};

cam::UnitConfig unit_config(unsigned blocks, unsigned cells, cam::EvalMode mode,
                            cam::CamKind kind = cam::CamKind::kBinary,
                            unsigned data_width = 32) {
  cam::UnitConfig cfg;
  cfg.block.cell.kind = kind;
  cfg.block.cell.data_width = data_width;
  cfg.block.block_size = cells;
  cfg.block.bus_width = data_width * 16;
  cfg.eval_mode = mode;
  cfg.unit_size = blocks;
  cfg.bus_width = data_width * 16;
  return cfg;
}

/// What answers a config's searches: "reference" off the fast path,
/// "index+gating" when every group plane is indexed (FastPlane::indexed()),
/// else the sweep kernel the planes run.
std::string kernel_name_for(const cam::UnitConfig& cfg) {
  if (cfg.eval_mode == cam::EvalMode::kReference) return "reference";
  const cam::CamUnit unit(cfg);
  for (unsigned g = 0; g < unit.groups(); ++g) {
    if (!unit.group_indexed(g)) return cam::match_kernel_registry().front().name;
  }
  return "index+gating";
}

/// Preloads half the unit's capacity, then streams one search beat per
/// cycle for `cycles` cycles (II = 1, every block of the group active).
Rate search_stream_rate(const cam::UnitConfig& cfg, std::uint64_t cycles) {
  cam::CamUnit unit(cfg);
  const unsigned capacity = unit.capacity_per_group();
  const unsigned preload = capacity / 2;
  const unsigned per_beat = cfg.words_per_beat();
  unsigned stored = 0;
  while (stored < preload) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kUpdate;
    for (unsigned w = 0; w < per_beat && stored + w < preload; ++w) {
      req.words.push_back(stored + w);
    }
    stored += static_cast<unsigned>(req.words.size());
    unit.issue(std::move(req));
    bench::step(unit);
  }
  for (unsigned i = 0; i < cam::CamUnit::update_latency() + 2; ++i) bench::step(unit);

  std::uint64_t responses = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t c = 0; c < cycles; ++c) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    req.keys.push_back(static_cast<cam::Word>(c % capacity));
    req.seq = c;
    unit.issue(std::move(req));
    bench::step(unit);
    if (unit.response().has_value()) ++responses;
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  Rate r;
  r.cycles_per_sec = static_cast<double>(cycles) / secs;
  r.searches_per_sec = static_cast<double>(responses) / secs;
  return r;
}

/// Streams S-key search beats into a sharded engine (the hash partitioner
/// spreads the keys, so all shards stay busy) and reports the engine's
/// simulated cycle rate.
Rate engine_stream_rate(unsigned shards, std::uint64_t cycles,
                        telemetry::MetricRegistry* registry = nullptr,
                        telemetry::SpanTracer* tracer = nullptr,
                        telemetry::HealthMonitor* health = nullptr,
                        telemetry::FlightRecorder* recorder = nullptr) {
  system::ShardedCamEngine::Config ec;
  ec.shards = shards;
  ec.credits_per_shard = 64;
  system::CamSystem::Config sc;
  sc.unit = unit_config(16, 16, cam::EvalMode::kFast);
  system::ShardedCamEngine engine(ec, sc);
  system::CamDriver driver(engine);
  if (registry != nullptr || tracer != nullptr) {
    driver.attach_telemetry(registry, tracer, /*snapshot_every=*/256);
  }
  if (health != nullptr) driver.attach_health(health);
  if (recorder != nullptr) driver.attach_flight_recorder(recorder);

  std::vector<cam::Word> words;
  words.reserve(static_cast<std::size_t>(shards) * 128);
  for (unsigned i = 0; i < shards * 128u; ++i) words.push_back(i);
  driver.store(words);

  const std::uint64_t start_cycles = engine.stats().cycles;
  std::uint64_t responses = 0;
  std::uint64_t key = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t c = 0; c < cycles; ++c) {
    cam::UnitRequest req;
    req.op = cam::OpKind::kSearch;
    for (unsigned k = 0; k < shards; ++k) req.keys.push_back(key++ % (shards * 128u));
    driver.submit_async(std::move(req));
    driver.poll();
    while (auto comp = driver.try_pop_completion()) {
      responses += comp->results.size();
    }
  }
  driver.drain();
  while (driver.try_pop_completion()) {
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  const double stepped =
      static_cast<double>(engine.stats().cycles - start_cycles);
  Rate r;
  r.cycles_per_sec = stepped / secs;
  r.searches_per_sec = static_cast<double>(responses) / secs;
  return r;
}

struct Geometry {
  unsigned blocks;
  unsigned cells;
  std::uint64_t cycles;  ///< Simulated cycles per measured run.
  cam::CamKind kind = cam::CamKind::kBinary;
};

/// Packed pre-edge arrays for the kernel-level encode ablation: `depth`
/// distinct stored words, the matching nmask plane (mask-free = the plain
/// width mask everywhere; masked = every 4th entry wildcards its low 2
/// bits), all entries valid, and an always-hit key schedule whose hit
/// position rotates over the full depth (so the priority scheme's early
/// exit sees the average case, not the best case).
struct EncodeWorkload {
  std::vector<std::uint64_t> stored, nmask, valid;
  std::vector<cam::Word> keys;
  unsigned depth = 0;
};

EncodeWorkload make_encode_workload(unsigned width, unsigned depth,
                                    bool mask_free) {
  EncodeWorkload w;
  w.depth = depth;
  const std::uint64_t full = (std::uint64_t{1} << width) - 1;
  w.stored.resize(depth);
  w.nmask.resize(depth);
  for (unsigned i = 0; i < depth; ++i) {
    w.stored[i] = i & full;
    w.nmask[i] =
        mask_free || (i % 4 != 0) ? full : (full & ~std::uint64_t{3});
  }
  w.valid.assign((depth + 63) / 64, ~std::uint64_t{0});
  if (depth % 64 != 0) w.valid.back() = (std::uint64_t{1} << (depth % 64)) - 1;
  w.keys.resize(1024);  // power of two: the hot loop indexes with a mask
  for (std::size_t i = 0; i < w.keys.size(); ++i) {
    w.keys[i] = w.stored[(i * 7 + 3) % depth];
  }
  return w;
}

/// The q-quantile of `xs` (0 <= q <= 1), interpolating between order
/// statistics; 0 for no samples.
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

/// Keeps the optimizer from deleting the measured loops' work.
volatile std::uint64_t g_encode_sink = 0;

/// Unfused baseline: the pre-fusion block path exactly - raw sweep,
/// valid-AND into a persistent BitVec one set_word at a time, then the
/// by-value encode_match_lines, whose returned BlockResponse is constructed
/// per call (under one-hot that includes the per-call raw-vector copy, the
/// allocation-and-rescan tax the fused plane exists to remove). Returns
/// encodes per host second.
double unfused_encode_rate(const cam::MatchKernel& k, const EncodeWorkload& w,
                           cam::EncodingScheme scheme, std::uint64_t iters) {
  const std::size_t words = w.valid.size();
  std::vector<std::uint64_t> sweep(words);
  BitVec bits(w.depth);
  cam::BlockResponse resp;
  const cam::QueryTag tag;
  std::uint64_t sum = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const cam::Word key = w.keys[i & (w.keys.size() - 1)];
    k.fn(w.stored.data(), w.nmask.data(), key, w.depth, sweep.data());
    for (std::size_t j = 0; j < words; ++j) {
      bits.set_word(j, sweep[j] & w.valid[j]);
    }
    resp = cam::encode_match_lines(bits, scheme, tag);
    sum += resp.hit + resp.first_match + resp.match_count;
    if (scheme == cam::EncodingScheme::kOneHot) sum += resp.raw.words()[0];
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  g_encode_sink = g_encode_sink + sum;
  return static_cast<double>(iters) / secs;
}

/// Fused path: the kernel's encode_fn emits the finished EncodedMatch (and,
/// for one-hot, the valid-ANDed match words) in one pass.
double fused_encode_rate(const cam::MatchKernel& k, const EncodeWorkload& w,
                         cam::EncodingScheme scheme, std::uint64_t iters) {
  std::vector<std::uint64_t> onehot(w.valid.size());
  std::uint64_t* oh =
      scheme == cam::EncodingScheme::kOneHot ? onehot.data() : nullptr;
  cam::EncodedMatch enc;
  std::uint64_t sum = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const cam::Word key = w.keys[i & (w.keys.size() - 1)];
    k.encode_fn(w.stored.data(), w.nmask.data(), w.valid.data(), key, w.depth,
                scheme, enc, oh);
    sum += enc.hit + enc.first_match + enc.match_count;
    if (oh != nullptr) sum += onehot[0];
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  g_encode_sink = g_encode_sink + sum;
  return static_cast<double>(iters) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt =
      dspcam::bench::BenchOptions::from_args(argc, argv, "BENCH_step_rate.json");
  auto log = dspcam::bench::JsonLog::from_options(opt);

  dspcam::bench::banner("Two-speed engine: simulated step rate (host perf)");
  std::printf("warmup %u, repeat %u, values are medians\n\n", opt.warmup, opt.repeat);

  // Part 1: reference vs fast evaluation path.
  const Geometry geometries[] = {{16, 16, 50'000},
                                 {64, 64, 10'000},
                                 {256, 64, 4'000},
                                 {64, 64, 10'000, dspcam::cam::CamKind::kTernary}};
  std::printf("%-10s %-6s %-10s %14s %14s %10s\n", "unit", "kind", "mode", "cycles/s",
              "searches/s", "speedup");
  for (const auto& g : geometries) {
    char label[32];
    std::snprintf(label, sizeof(label), "%ux%u", g.blocks, g.cells);
    double ref_median = 0;
    for (const auto mode :
         {dspcam::cam::EvalMode::kReference, dspcam::cam::EvalMode::kFast}) {
      const auto [stats, sps_stats] = dspcam::bench::measure_repeated_pair(opt, [&] {
        const Rate r =
            search_stream_rate(unit_config(g.blocks, g.cells, mode, g.kind), g.cycles);
        return std::pair<double, double>{r.cycles_per_sec, r.searches_per_sec};
      });
      const bool fast = mode == dspcam::cam::EvalMode::kFast;
      const double speedup = fast && ref_median > 0 ? stats.median / ref_median : 0;
      if (!fast) ref_median = stats.median;
      char ratio[32] = "-";
      if (fast) std::snprintf(ratio, sizeof(ratio), "%.2fx", speedup);
      const std::string kind = dspcam::cam::to_string(g.kind);
      std::printf("%-10s %-6s %-10s %14.0f %14.0f %10s\n", label, kind.c_str(),
                  dspcam::cam::to_string(mode).c_str(), stats.median,
                  sps_stats.median, ratio);
      auto row = dspcam::bench::JsonLog::Row("micro_step_rate");
      row.str("kind", "eval_mode")
          .str("unit", label)
          .str("cam_kind", kind)
          .str("mode", dspcam::cam::to_string(mode))
          .str("kernel", kernel_name_for(unit_config(g.blocks, g.cells, mode, g.kind)))
          .num("blocks", static_cast<std::uint64_t>(g.blocks))
          .num("cells_per_block", static_cast<std::uint64_t>(g.cells))
          .num("sim_cycles", g.cycles);
      dspcam::bench::add_stats(row, "cycles_per_sec", stats);
      dspcam::bench::add_stats(row, "searches_per_sec", sps_stats);
      if (fast) row.num("speedup_vs_reference", speedup);
      log.emit(row);
    }
  }

  // Part 3: telemetry overhead on the sharded stream. Each repetition runs
  // the bare, telemetry and health+FDR configurations back to back, so a
  // rep's two ratios compare runs made under the same host state; the rows
  // report the median and p25..p75 of those per-rep ratios. The health run
  // adds the default rule pack, evaluated at every snapshot, and an armed
  // flight recorder, on its own registry and tracer.
  std::printf("\n%-24s %14s %10s %16s\n", "configuration", "cycles/s", "vs bare",
              "p25..p75");
  const unsigned t_shards = 4;
  const std::uint64_t t_cycles = 20'000;
  dspcam::telemetry::MetricRegistry registry;
  dspcam::telemetry::SpanTracer tracer;  // default 1-in-16 sampling
  dspcam::telemetry::MetricRegistry h_registry;
  dspcam::telemetry::SpanTracer h_tracer;
  dspcam::telemetry::HealthMonitor health(h_registry);
  health.add_default_rules();
  dspcam::telemetry::FlightRecorder recorder;
  std::vector<double> bare_rates, traced_rates, observed_rates, t_ratios, h_ratios;
  for (unsigned rep = 0; rep < opt.warmup + opt.repeat; ++rep) {
    const double bare = engine_stream_rate(t_shards, t_cycles).cycles_per_sec;
    registry.reset();
    tracer.clear();
    const double traced =
        engine_stream_rate(t_shards, t_cycles, &registry, &tracer).cycles_per_sec;
    h_registry.reset();
    h_tracer.clear();
    health.reset();
    recorder.clear();
    const double observed = engine_stream_rate(t_shards, t_cycles, &h_registry, &h_tracer,
                                               &health, &recorder)
                                .cycles_per_sec;
    if (rep < opt.warmup) continue;
    bare_rates.push_back(bare);
    traced_rates.push_back(traced);
    observed_rates.push_back(observed);
    t_ratios.push_back(bare > 0 ? traced / bare : 0);
    h_ratios.push_back(bare > 0 ? observed / bare : 0);
  }
  const auto bare = dspcam::bench::RepeatStats::of(bare_rates);
  std::printf("%-24s %14.0f %10s\n", "4 shards, bare", bare.median, "-");
  // One overhead row: the configuration's rate stats and its per-rep ratios.
  const auto overhead_row = [&](const char* kind, const char* label, const char* rate_name,
                                const std::vector<double>& rates,
                                const std::vector<double>& ratios) {
    const auto rate = dspcam::bench::RepeatStats::of(rates);
    const double median = dspcam::bench::RepeatStats::of(ratios).median;
    const double p25 = quantile(ratios, 0.25);
    const double p75 = quantile(ratios, 0.75);
    std::printf("%-24s %14.0f %9.3fx %8.3f..%.3f\n", label, rate.median, median, p25, p75);
    auto row = dspcam::bench::JsonLog::Row("micro_step_rate");
    row.str("kind", kind)
        .num("shards", static_cast<std::uint64_t>(t_shards))
        .num("sim_cycles", t_cycles)
        .num("relative_rate", median)
        .num("relative_rate_p25", p25)
        .num("relative_rate_p75", p75);
    dspcam::bench::add_stats(row, "bare_cycles_per_sec", bare);
    dspcam::bench::add_stats(row, rate_name, rate);
    return row;
  };
  {
    auto row = overhead_row("telemetry_overhead", "4 shards, telemetry",
                            "traced_cycles_per_sec", traced_rates, t_ratios);
    row.num("sample_every", tracer.config().sample_every)
        .num("spans_finished", tracer.finished());
    dspcam::bench::add_telemetry(row, registry);
    log.emit(row);
  }
  {
    auto row = overhead_row("health_overhead", "4 shards, health+fdr",
                            "observed_cycles_per_sec", observed_rates, h_ratios);
    row.num("health_evaluations", health.evaluations())
        .num("events_recorded", recorder.recorded());
    log.emit(row);
  }

  // Part 7: fused sweep->encode ablation, at the kernel-call level so the
  // unit pipeline's fixed overhead cannot dilute the effect being measured.
  // For each geometry the registry's sweep is timed against ITS OWN legacy
  // sweep+BitVec+encode path. Every repetition times the two back to back
  // and contributes one ratio, so host drift cancels out of the ratio.
  struct EncodeGeometry {
    const char* label;
    dspcam::cam::CamKind kind;
    unsigned width;
    unsigned depth;
    bool mask_free;
    std::uint64_t iters;  ///< Encode calls per measured run.
  };
  const EncodeGeometry encode_geometries[] = {
      {"bcam_w32_d64", dspcam::cam::CamKind::kBinary, 32, 64, true, 40'000},
      {"bcam_w32_d256", dspcam::cam::CamKind::kBinary, 32, 256, true, 15'000},
      {"tcam_w32_d64", dspcam::cam::CamKind::kTernary, 32, 64, false, 40'000},
      {"tcam_w16_d256", dspcam::cam::CamKind::kTernary, 16, 256, false, 15'000},
  };
  const dspcam::cam::MatchKernel& kernel = dspcam::cam::match_kernel_registry().front();
  std::printf("\n%-16s %-12s %-18s %14s %12s\n", "geometry", "scheme", "kernel",
              "encodes/s", "vs unfused");
  for (const auto& eg : encode_geometries) {
    const EncodeWorkload work =
        make_encode_workload(eg.width, eg.depth, eg.mask_free);
    for (const auto scheme : {dspcam::cam::EncodingScheme::kPriorityIndex,
                              dspcam::cam::EncodingScheme::kOneHot,
                              dspcam::cam::EncodingScheme::kMatchCount}) {
      std::vector<double> eps, base_eps, ratios;
      const auto run_pair = [&] {
        const double base = unfused_encode_rate(kernel, work, scheme, eg.iters);
        const double fused = fused_encode_rate(kernel, work, scheme, eg.iters);
        return std::pair<double, double>{base, fused};
      };
      for (unsigned i = 0; i < opt.warmup; ++i) (void)run_pair();
      for (unsigned i = 0; i < opt.repeat; ++i) {
        const auto [base, fused] = run_pair();
        base_eps.push_back(base);
        eps.push_back(fused);
        if (base > 0) ratios.push_back(fused / base);
      }
      const auto stats = dspcam::bench::RepeatStats::of(std::move(eps));
      const auto base_stats = dspcam::bench::RepeatStats::of(std::move(base_eps));
      const double speedup = dspcam::bench::RepeatStats::of(ratios).median;
      const std::string scheme_name = dspcam::cam::to_string(scheme);
      std::printf("%-16s %-12s %-18s %14.0f %11.2fx\n", eg.label,
                  scheme_name.c_str(), kernel.name, stats.median, speedup);
      auto row = dspcam::bench::JsonLog::Row("micro_step_rate");
      row.str("kind", "encode")
          .str("unit", eg.label)
          .str("scheme", scheme_name)
          .str("path", "registry")
          .str("kernel", kernel.name)
          .str("cam_kind", dspcam::cam::to_string(eg.kind))
          .num("data_width", static_cast<std::uint64_t>(eg.width))
          .num("cells", static_cast<std::uint64_t>(eg.depth))
          .num("encode_calls", eg.iters);
      dspcam::bench::add_stats(row, "encodes_per_sec", stats);
      dspcam::bench::add_stats(row, "unfused_encodes_per_sec", base_stats);
      row.num("speedup_vs_unfused", speedup);
      log.emit(row);
    }
  }

  return 0;
}
