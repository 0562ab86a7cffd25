// Mutation fuzz of every artifact reader. Five real artifacts - a saved
// checkpoint, a black box, a Chrome trace, a snapshots.jsonl line and a
// bench row - are mutated by byte flips, truncation, splicing and deep
// nesting, and every mutant goes through every reader: json::parse(),
// load_checkpoint(), the trace_lint checks, camtop's SnapshotView::parse
// and bench_diff's row parser. Each must return a value or an error
// (load_checkpoint: throw SimError); none may crash or throw anything else.
// The seed and the budget are fixed, so every run is the same run; the
// sanitizer build runs it under ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/error.h"
#include "src/system/checkpoint_io.h"
#include "src/system/driver.h"
#include "src/system/sharded_engine.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/health.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/span.h"
#include "tools/bench_diff_lib.h"
#include "tools/camtop_lib.h"
#include "tools/trace_lint_lib.h"

namespace dspcam::tools {
namespace {

namespace json = telemetry::json;

constexpr std::uint64_t kSeed = 0x5eed0035;
constexpr int kMutantsPerArtifact = 300;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::trunc | std::ios::binary) << text;
}

struct Artifacts {
  std::string checkpoint;
  std::string blackbox;
  std::string trace;
  std::string snapshot;
  std::string bench_row;
};

/// Each artifact as its writer emits it.
Artifacts make_artifacts() {
  Artifacts a;
  system::CamSystem::Config shard;
  shard.unit.block.cell.data_width = 32;
  shard.unit.block.block_size = 32;
  shard.unit.block.parity = true;
  shard.unit.unit_size = 2;
  system::ShardedCamEngine::Config cfg;
  cfg.shards = 2;
  system::ShardedCamEngine engine(cfg, shard);

  telemetry::MetricRegistry reg;
  telemetry::SpanTracer tracer;
  {
    system::CamDriver drv(engine);
    drv.attach_telemetry(&reg, &tracer);
    std::vector<cam::Word> words;
    for (cam::Word w = 0; w < 24; ++w) words.push_back(w * 7 + 1);
    drv.store(words);
    for (const cam::Word w : words) drv.search(w);
    drv.drain();
  }
  for (int i = 0; i < 1000 && !engine.idle(); ++i) engine.step();
  const std::string path = ::testing::TempDir() + "parser_fuzz_source.ckpt";
  system::save_checkpoint(engine.checkpoint(), path);
  a.checkpoint = read_file(path);

  telemetry::HealthMonitor health(reg);
  health.add_default_rules();
  health.evaluate(100);
  tracer.counter("queue", 90, 3);
  tracer.counter("queue", 95, 1);
  telemetry::FlightRecorder rec;
  rec.record(50, telemetry::FlightRecorder::EventKind::kQuarantine,
             telemetry::Severity::kCritical, "shard down", {{"shard", 1}});
  rec.record(60, telemetry::FlightRecorder::EventKind::kRebuild,
             telemetry::Severity::kInfo, "shard back", {{"shard", 1}});
  a.blackbox = rec.dump_json(100, "fuzz", &reg, &tracer, &health);
  a.trace = tracer.chrome_json();

  const std::string snaps = ::testing::TempDir() + "parser_fuzz_source.jsonl";
  {
    telemetry::SnapshotWriter writer(reg, snaps, 1);
    writer.write(100);
  }
  a.snapshot = read_file(snaps);

  bench::JsonLog::Row row("micro_step_rate");
  row.str("kind", "encode").str("kernel", "generic_avx2").boolean("parity", true);
  row.num("cells", std::uint64_t{256}).num("rate_median", 1.5e6);
  bench::add_telemetry(row, reg);
  a.bench_row = row.to_json();
  std::remove(path.c_str());
  std::remove(snaps.c_str());
  return a;
}

/// One mutation of `text`: byte flips, a truncation, a splice from `donor`
/// or a run of container openers (sometimes far past json::kMaxDepth).
std::string mutate(std::string text, const std::string& donor, std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) { return n == 0 ? 0 : rng() % n; };
  static constexpr std::string_view kBytes = "{}[],:\"\\0123456789-.eE tfn\x01\n";
  switch (rng() % 4) {
    case 0:
      for (std::size_t flips = 1 + pick(4); flips > 0 && !text.empty(); --flips) {
        char& c = text[pick(text.size())];
        c = rng() % 2 ? static_cast<char>(c ^ (1 << pick(8)))
                      : kBytes[pick(kBytes.size())];
      }
      break;
    case 1:
      text.resize(pick(text.size()));
      break;
    case 2: {
      const std::size_t from = pick(donor.size());
      const std::string slice = donor.substr(from, 1 + pick(64));
      const std::size_t at = pick(text.size() + 1);
      text.replace(at, pick(16), slice);
      break;
    }
    default: {
      static constexpr std::size_t kDepths[] = {json::kMaxDepth - 1, json::kMaxDepth,
                                                json::kMaxDepth + 1, 200000};
      const std::size_t depth = kDepths[pick(std::size(kDepths))];
      const std::string_view open = rng() % 2 ? "[" : "{\"a\":";
      std::string run;
      for (std::size_t i = 0; i < depth; ++i) run += open;
      if (rng() % 2) run += std::string(depth, open == "[" ? ']' : '}');
      text.insert(pick(text.size() + 1), run);
      break;
    }
  }
  return text;
}

/// Every reader over one input; each must come back with a value or an
/// error.
void feed_every_reader(const std::string& text, const std::string& path,
                       std::size_t& parsed) {
  const json::Result r = json::parse(text);
  if (r.ok) {
    ++parsed;
    EXPECT_TRUE(r.error.empty());
  } else {
    EXPECT_FALSE(r.error.empty());
    EXPECT_LE(r.error_offset, text.size());
    EXPECT_TRUE(r.value.is_null());
  }

  write_file(path, text);
  try {
    (void)system::load_checkpoint(path);
  } catch (const SimError&) {
    // A refusal is the expected outcome for most mutants.
  } catch (const std::exception& e) {
    ADD_FAILURE() << "load_checkpoint threw a non-SimError: " << e.what();
  }

  for (const tracelint::LintResult& lint :
       {tracelint::lint_trace(text), tracelint::lint_blackbox(text),
        tracelint::lint_jsonl(text), tracelint::lint_metrics(text)}) {
    EXPECT_EQ(lint.ok, lint.error.empty()) << lint.error;
  }

  (void)camtop::last_snapshot(text);
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = std::min(text.find('\n', start), text.size());
    const std::string_view line(text.data() + start, nl - start);
    (void)camtop::SnapshotView::parse(line);
    benchdiff::Row row;
    (void)benchdiff::parse_row(line, row);
    start = nl + 1;
  }
}

TEST(ParserFuzz, UnmutatedArtifactsPassTheirReaders) {
  const Artifacts a = make_artifacts();
  const std::string path = ::testing::TempDir() + "parser_fuzz_clean.ckpt";
  write_file(path, a.checkpoint);
  EXPECT_EQ(system::load_checkpoint(path).shards, 2u);
  std::remove(path.c_str());
  EXPECT_TRUE(tracelint::lint_blackbox(a.blackbox).ok)
      << tracelint::lint_blackbox(a.blackbox).error;
  EXPECT_TRUE(tracelint::lint_trace(a.trace).ok) << tracelint::lint_trace(a.trace).error;
  EXPECT_TRUE(tracelint::lint_jsonl(a.snapshot).ok);
  EXPECT_TRUE(camtop::last_snapshot(a.snapshot).has_value());
  benchdiff::Row row;
  ASSERT_TRUE(benchdiff::parse_row(a.bench_row, row));
  EXPECT_EQ(row.strings.at("kind"), "encode");
  EXPECT_EQ(row.strings.at("parity"), "true");
  EXPECT_EQ(row.numbers.at("rate_median"), 1.5e6);
}

TEST(ParserFuzz, MutantsGetAValueOrAnErrorFromEveryReader) {
  const Artifacts a = make_artifacts();
  const std::vector<const std::string*> sources = {
      &a.checkpoint, &a.blackbox, &a.trace, &a.snapshot, &a.bench_row};
  const std::string path = ::testing::TempDir() + "parser_fuzz_mutant.ckpt";
  std::mt19937_64 rng(kSeed);
  std::size_t parsed = 0;
  std::size_t total = 0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const std::string& donor = *sources[(s + 1) % sources.size()];
    for (int i = 0; i < kMutantsPerArtifact; ++i) {
      // Half the mutants stack a second mutation on the first.
      std::string text = mutate(*sources[s], donor, rng);
      if (rng() % 2) text = mutate(std::move(text), donor, rng);
      feed_every_reader(text, path, parsed);
      ++total;
      if (::testing::Test::HasFailure()) {
        FAIL() << "artifact " << s << " mutant " << i << ":\n" << text.substr(0, 2000);
      }
    }
  }
  std::remove(path.c_str());
  // The mutants reach both outcomes, so they exercise more than the first
  // byte of each reader.
  EXPECT_GT(parsed, total / 20);
  EXPECT_LT(parsed, total - total / 20);
}

}  // namespace
}  // namespace dspcam::tools
