// Compares two BENCH_*.json artifacts (JSON-lines, one row per object) and
// flags median regressions, so the perf-smoke job can annotate a PR with
// what actually moved instead of shipping an opaque blob.
//
//   bench_diff <baseline> <candidate> [--threshold 0.2]
//
// Rows are matched across files by their identity fields: every top-level
// field that is NOT a measured statistic (suffixes _median/_mean/_stddev/
// _min/_max/_p25/_p75/_samples) and NOT host- or derivation-dependent (host_cores,
// effective_step_threads, speedup_*, relative_rate, spans_finished,
// telemetry, sample_every). The identity is GENERIC - no per-kind schema -
// so rows of kinds this tool has never seen are still matched and diffed
// (bench_diff_lib.h, pinned by tests/tools/bench_diff_test.cc). For each
// matched pair, every *_median field present on both sides is compared; a
// drop of more than --threshold (fraction, default 0.2) is a regression.
// Rows present on only one side are reported but never fatal - benches gain
// and lose rows across PRs. Exits 1 iff at least one regression was found,
// 2 on usage/parse errors.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "tools/bench_diff_lib.h"

int main(int argc, char** argv) {
  using dspcam::tools::benchdiff::Row;
  using dspcam::tools::benchdiff::identity_of;
  using dspcam::tools::benchdiff::load_rows;

  std::string baseline_path, candidate_path;
  double threshold = 0.2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold" && i + 1 < argc) {
      threshold = std::strtod(argv[++i], nullptr);
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (candidate_path.empty()) {
      candidate_path = arg;
    } else {
      std::fprintf(stderr, "bench_diff: unexpected argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (candidate_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_diff <baseline.json> <candidate.json> "
                 "[--threshold 0.2]\n");
    return 2;
  }

  std::vector<Row> baseline, candidate;
  if (!load_rows(baseline_path, baseline) || !load_rows(candidate_path, candidate)) {
    return 2;
  }

  std::map<std::string, const Row*> base_by_id;
  for (const Row& row : baseline) base_by_id[identity_of(row)] = &row;

  unsigned matched = 0, compared = 0, regressions = 0;
  std::vector<std::string> only_candidate;
  std::map<std::string, bool> base_seen;
  for (const Row& cand : candidate) {
    const std::string id = identity_of(cand);
    const auto it = base_by_id.find(id);
    if (it == base_by_id.end()) {
      only_candidate.push_back(id);
      continue;
    }
    base_seen[id] = true;
    ++matched;
    const Row& base = *it->second;
    for (const auto& [key, new_v] : cand.numbers) {
      const std::size_t n = std::strlen("_median");
      if (key.size() <= n || key.compare(key.size() - n, n, "_median") != 0) continue;
      const auto bv = base.numbers.find(key);
      if (bv == base.numbers.end()) continue;
      ++compared;
      const double old_v = bv->second;
      const double delta = old_v != 0 ? (new_v - old_v) / old_v : 0;
      const bool regressed = old_v > 0 && -delta > threshold;
      if (regressed) ++regressions;
      std::printf("%s  [%s]  %-24s %12.6g -> %12.6g  %+7.1f%%\n",
                  regressed ? "REGRESSION" : "ok        ", id.c_str(),
                  key.c_str(), old_v, new_v, 100.0 * delta);
    }
  }
  for (const auto& [id, row] : base_by_id) {
    if (!base_seen.count(id)) {
      std::printf("note: row only in baseline:  [%s]\n", id.c_str());
    }
    (void)row;
  }
  for (const std::string& id : only_candidate) {
    std::printf("note: row only in candidate: [%s]\n", id.c_str());
  }

  std::printf(
      "\nbench_diff: %u matched row(s), %u median comparison(s), "
      "%u regression(s) beyond %.0f%%\n",
      matched, compared, regressions, 100.0 * threshold);
  return regressions > 0 ? 1 : 0;
}
