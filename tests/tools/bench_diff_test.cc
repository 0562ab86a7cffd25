// Pins the bench_diff row-matching rules (tools/bench_diff_lib.h): the
// identity must stay GENERIC - every non-stat, non-volatile scalar field
// participates - so rows of kinds the tool has never seen (the new "fusion"
// rows being the motivating case) are matched and diffed, never skipped.
#include "tools/bench_diff_lib.h"

#include <gtest/gtest.h>

#include <string>

namespace dspcam::tools::benchdiff {
namespace {

Row parse(const std::string& line) {
  Row row;
  EXPECT_TRUE(parse_row(line, row)) << line;
  return row;
}

TEST(BenchDiffIdentity, UnknownKindRowsKeyOnKindAndAllDescriptiveFields) {
  // A row kind bench_diff has no schema for: identity must still be stable
  // and must still separate rows that differ in any descriptive field.
  const Row a = parse(
      R"({"kind": "fusion", "geometry": "4x512", "fusion_keys": 8, )"
      R"("mix": "search_only", "steps_per_sec_median": 100.0})");
  const Row b = parse(
      R"({"kind": "fusion", "geometry": "4x512", "fusion_keys": 8, )"
      R"("mix": "search_only", "steps_per_sec_median": 250.0})");
  const Row c = parse(
      R"({"kind": "fusion", "geometry": "4x512", "fusion_keys": 4, )"
      R"("mix": "search_only", "steps_per_sec_median": 100.0})");
  // Same identity despite different medians -> a and b are diffed as a pair.
  EXPECT_EQ(identity_of(a), identity_of(b));
  // A different batch width is a different row.
  EXPECT_NE(identity_of(a), identity_of(c));
  // The kind itself participates, so "fusion" can never collide with an
  // identically shaped row of another kind.
  EXPECT_NE(identity_of(a).find("kind=fusion"), std::string::npos);
}

TEST(BenchDiffIdentity, StatAndVolatileFieldsStayOutOfTheKey) {
  const Row a = parse(
      R"({"kind": "fusion", "fusion_keys": 8, "steps_per_sec_median": 1.0, )"
      R"("steps_per_sec_stddev": 0.1, "host_cores": 8, "speedup_vs_b1": 2.5})");
  const Row b = parse(
      R"({"kind": "fusion", "fusion_keys": 8, "steps_per_sec_median": 9.0, )"
      R"("steps_per_sec_stddev": 0.7, "host_cores": 64, "speedup_vs_b1": 1.1})");
  EXPECT_EQ(identity_of(a), identity_of(b));
  EXPECT_TRUE(is_stat_field("steps_per_sec_median"));
  EXPECT_TRUE(is_stat_field("cycles_per_sec_samples"));
  EXPECT_FALSE(is_stat_field("median"));  // suffix match needs a prefix
  EXPECT_TRUE(is_volatile_field("speedup_vs_b1"));
  EXPECT_TRUE(is_volatile_field("speedup_vs_generic"));
  EXPECT_TRUE(is_volatile_field("host_cores"));
  EXPECT_FALSE(is_volatile_field("fusion_keys"));
}

// micro_step_rate's overhead rows report the p25..p75 of their per-rep
// ratios; like the other statistics, quartiles vary run to run.
TEST(BenchDiffIdentity, QuartileFieldsStayOutOfTheKey) {
  const Row a = parse(
      R"({"kind": "telemetry_overhead", "shards": 4, "relative_rate": 0.9, )"
      R"("relative_rate_p25": 0.85, "relative_rate_p75": 0.95})");
  const Row b = parse(
      R"({"kind": "telemetry_overhead", "shards": 4, "relative_rate": 0.7, )"
      R"("relative_rate_p25": 0.5, "relative_rate_p75": 1.1})");
  EXPECT_EQ(identity_of(a), identity_of(b));
  EXPECT_TRUE(is_stat_field("relative_rate_p25"));
  EXPECT_TRUE(is_stat_field("relative_rate_p75"));
}

TEST(BenchDiffIdentity, EncodeRowsKeyOnTierAndSchemeWithSpeedupVolatile) {
  // The part-7 fused-encode rows of micro_step_rate: (unit, scheme, path,
  // kernel, ...) separate the kernel tiers (the AVX2 sweep and the scalar
  // one a DSPCAM_NO_SIMD build registers) and the encoding schemes, while
  // the paired-ratio speedup and the per-host rate stats stay out of the
  // identity.
  const auto encode_row = [](const char* scheme, const char* kernel, double median,
                             double speedup) {
    return parse(std::string(R"({"bench": "micro_step_rate", "kind": "encode", )") +
                 R"("unit": "bcam_w32_d256", "scheme": ")" + scheme +
                 R"(", "path": "registry", "kernel": ")" + kernel +
                 R"(", "cam_kind": "BCAM", "data_width": 32, "cells": 256, )" +
                 R"("encode_calls": 15000, "encodes_per_sec_median": )" +
                 std::to_string(median) + R"(, "speedup_vs_unfused": )" +
                 std::to_string(speedup) + "}");
  };
  const Row a = encode_row("priority-index", "generic_avx2", 4e6, 1.6);
  const Row b = encode_row("priority-index", "generic_avx2", 9e6, 1.2);
  const Row scalar = encode_row("priority-index", "generic_scalar", 4e6, 1.6);
  const Row one_hot = encode_row("one-hot", "generic_avx2", 4e6, 1.6);
  EXPECT_EQ(identity_of(a), identity_of(b));
  EXPECT_NE(identity_of(a), identity_of(scalar));
  EXPECT_NE(identity_of(a), identity_of(one_hot));
  EXPECT_TRUE(is_volatile_field("speedup_vs_unfused"));
  EXPECT_TRUE(is_stat_field("unfused_encodes_per_sec_median"));
}

TEST(BenchDiffIdentity, BooleansAndNumbersParticipate) {
  // fault_campaign rows: the parity flag is a boolean, the injection rate a
  // number; either one separates two otherwise identical rows.
  const auto campaign_row = [](const char* parity, const char* rate) {
    return parse(std::string(R"({"bench": "fault_campaign", "geometry": "8x64", )") +
                 R"("parity": )" + parity + R"(, "rate_per_cycle": )" + rate + "}");
  };
  const Row on = campaign_row("true", "0.001");
  EXPECT_NE(identity_of(on), identity_of(campaign_row("false", "0.001")));
  EXPECT_NE(identity_of(on), identity_of(campaign_row("true", "0.002")));
  EXPECT_EQ(identity_of(on), identity_of(campaign_row("true", "0.001")));
}

TEST(BenchDiffParser, NestedTelemetryObjectsAreSkippedNotFatal) {
  const Row r = parse(
      R"({"kind": "fusion", "telemetry": {"counters": {"a.b": 1}, )"
      R"("nested": [1, {"q": 2}]}, "rate_median": 5.0})");
  EXPECT_EQ(r.strings.at("kind"), "fusion");
  EXPECT_DOUBLE_EQ(r.numbers.at("rate_median"), 5.0);
  // The nested object contributed nothing (and "telemetry" is volatile
  // anyway).
  EXPECT_EQ(r.strings.count("telemetry"), 0u);
  EXPECT_EQ(r.numbers.count("a.b"), 0u);
}

TEST(BenchDiffParser, MalformedRowsAreRejected) {
  Row row;
  EXPECT_FALSE(parse_row(R"({"kind": )", row));
  EXPECT_FALSE(parse_row(R"("not an object")", row));
  EXPECT_FALSE(parse_row(R"({"unterminated": "str)", row));
}

}  // namespace
}  // namespace dspcam::tools::benchdiff
