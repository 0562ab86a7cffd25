// Pins the bench_diff row-matching rules (tools/bench_diff_lib.h): the
// identity must stay GENERIC - every non-stat, non-volatile scalar field
// participates - so rows of kinds the tool has never seen (the new "fusion"
// rows being the motivating case) are matched and diffed, never skipped.
#include "tools/bench_diff_lib.h"

#include <gtest/gtest.h>

namespace dspcam::tools::benchdiff {
namespace {

Row parse(const std::string& line) {
  Row row;
  EXPECT_TRUE(LineParser(line).parse(row)) << line;
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

TEST(BenchDiffIdentity, EncodeRowsKeyOnTierAndSchemeWithSpeedupVolatile) {
  // The part-7 fused-encode rows: (unit, scheme, path, kernel) separate the
  // kernel tiers, while the paired-ratio speedup and the per-host rate
  // stats stay out of the identity.
  const Row a = parse(
      R"({"kind": "encode", "unit": "bcam_w32_d256", "scheme": "priority-index", )"
      R"("path": "template", "kernel": "eq_d256", "cells": 256, )"
      R"("encodes_per_sec_median": 4e6, "speedup_vs_unfused": 1.6})");
  const Row b = parse(
      R"({"kind": "encode", "unit": "bcam_w32_d256", "scheme": "priority-index", )"
      R"("path": "template", "kernel": "eq_d256", "cells": 256, )"
      R"("encodes_per_sec_median": 9e6, "speedup_vs_unfused": 1.2})");
  const Row c = parse(
      R"({"kind": "encode", "unit": "bcam_w32_d256", "scheme": "priority-index", )"
      R"("path": "registry", "kernel": "eq32_avx2", "cells": 256, )"
      R"("encodes_per_sec_median": 4e6, "speedup_vs_unfused": 1.6})");
  EXPECT_EQ(identity_of(a), identity_of(b));
  EXPECT_NE(identity_of(a), identity_of(c));
  EXPECT_TRUE(is_volatile_field("speedup_vs_unfused"));
  EXPECT_TRUE(is_stat_field("unfused_encodes_per_sec_median"));
}

TEST(BenchDiffIdentity, BooleansAndNumbersParticipate) {
  const Row a = parse(R"({"kind": "kernel", "force_generic": true, "x_median": 1})");
  const Row b = parse(R"({"kind": "kernel", "force_generic": false, "x_median": 1})");
  EXPECT_NE(identity_of(a), identity_of(b));
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
  EXPECT_FALSE(LineParser(R"({"kind": )").parse(row));
  EXPECT_FALSE(LineParser(R"("not an object")").parse(row));
  EXPECT_FALSE(LineParser(R"({"unterminated": "str)").parse(row));
}

}  // namespace
}  // namespace dspcam::tools::benchdiff
