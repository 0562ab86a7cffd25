// Row parsing and identity logic behind tools/bench_diff.cc, extracted so
// tests can pin the matching rules (tests/tools/bench_diff_test.cc).
//
// The central contract is the GENERIC identity: a row's key is every
// top-level scalar field that is neither a measured statistic (suffixes
// _median/_mean/_stddev/_min/_max/_p25/_p75/_samples) nor host-/derivation-dependent
// (host_cores, effective_step_threads, speedup_*, relative_rate,
// spans_finished, telemetry, sample_every). Nothing is keyed on a known
// "kind" whitelist, so a bench part introducing a new row kind (e.g.
// "fusion") is matched and diffed the day it lands - never silently
// skipped.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/json.h"

namespace dspcam::tools::benchdiff {

/// One parsed bench row: scalar fields only; nested objects/arrays (e.g.
/// the "telemetry" registry dump) are skipped during parsing.
struct Row {
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;
  unsigned line = 0;
};

inline bool is_stat_field(const std::string& key) {
  static const char* kSuffixes[] = {"_median", "_mean", "_stddev", "_min",
                                    "_max",    "_p25",  "_p75",    "_samples"};
  for (const char* s : kSuffixes) {
    const std::size_t n = std::strlen(s);
    if (key.size() > n && key.compare(key.size() - n, n, s) == 0) return true;
  }
  return false;
}

inline bool is_volatile_field(const std::string& key) {
  static const char* kVolatile[] = {
      "host_cores",        "effective_step_threads", "relative_rate",
      "spans_finished",    "telemetry",              "sample_every",
  };
  for (const char* v : kVolatile) {
    if (key == v) return true;
  }
  return key.compare(0, 8, "speedup_") == 0;
}

/// Parses one bench row. Scalars land in `row` (numbers as doubles, strings
/// and booleans as text); nulls and nested objects and arrays are skipped.
/// Returns false unless the line is one well-formed JSON object.
inline bool parse_row(std::string_view line, Row& row) {
  const telemetry::json::Result doc = telemetry::json::parse(line);
  if (!doc.ok || !doc.value.is_object()) return false;
  for (const auto& [key, value] : doc.value.members()) {
    if (const auto s = value.str()) {
      row.strings[key] = *s;
    } else if (const auto b = value.boolean()) {
      row.strings[key] = *b ? "true" : "false";
    } else if (const auto n = value.number()) {
      row.numbers[key] = *n;
    }
  }
  return true;
}

/// Stable identity string: sorted non-stat, non-volatile fields. Generic by
/// construction - every scalar field participates unless excluded above -
/// so rows of unknown kinds key on (kind + all their descriptive fields).
inline std::string identity_of(const Row& row) {
  std::string id;
  for (const auto& [k, v] : row.strings) {
    if (!is_stat_field(k) && !is_volatile_field(k)) id += k + "=" + v + " ";
  }
  for (const auto& [k, v] : row.numbers) {
    if (is_stat_field(k) || is_volatile_field(k)) continue;
    id += k + "=" + telemetry::json::number(v) + " ";
  }
  if (!id.empty()) id.pop_back();
  return id;
}

inline bool load_rows(const std::string& path, std::vector<Row>& rows) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  unsigned lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    bool blank = true;
    for (const char c : line) {
      if (!std::isspace(static_cast<unsigned char>(c))) blank = false;
    }
    if (blank) continue;
    Row row;
    row.line = lineno;
    if (!parse_row(line, row)) {
      std::fprintf(stderr, "bench_diff: %s:%u: malformed JSON row\n",
                   path.c_str(), lineno);
      return false;
    }
    rows.push_back(std::move(row));
  }
  return true;
}

}  // namespace dspcam::tools::benchdiff
