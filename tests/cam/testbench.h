// Shared cycle-driving helpers for CAM-layer tests.
//
// CamCell / CamBlock / CamUnit are self-contained components (they own and
// clock their children), so a test drives one of them directly: call the
// drive/issue API (the "eval phase"), then commit() once per cycle.
#pragma once

#include <optional>

#include "src/cam/block.h"
#include "src/cam/unit.h"

namespace dspcam::cam::test {

template <typename C>
void step(C& c) {
  c.eval();
  c.commit();
}

template <typename C>
void steps(C& c, unsigned n) {
  for (unsigned i = 0; i < n; ++i) step(c);
}

/// Issues a search on a block and runs until the response arrives.
/// Returns the response and (via out param) the observed latency in cycles.
inline BlockResponse run_search(CamBlock& block, Word key, unsigned* latency = nullptr,
                                std::uint64_t seq = 0) {
  BlockRequest req;
  req.op = OpKind::kSearch;
  req.key = key;
  req.tag.seq = seq;
  block.issue(std::move(req));
  for (unsigned cycle = 1; cycle <= 16; ++cycle) {
    step(block);
    if (block.response().has_value() && block.response()->tag.seq == seq) {
      if (latency != nullptr) *latency = cycle;
      return *block.response();
    }
  }
  throw SimError("testbench: block search response never arrived");
}

/// Loads words into a block through normal update beats (words_per_beat at
/// a time) and cycles until all acks observed.
inline void load_block(CamBlock& block, const std::vector<Word>& words,
                       const std::vector<std::uint64_t>& masks = {}) {
  std::size_t pos = 0;
  std::uint64_t seq = 1000;
  while (pos < words.size()) {
    const std::size_t n =
        std::min<std::size_t>(block.config().words_per_beat(), words.size() - pos);
    BlockRequest req;
    req.op = OpKind::kUpdate;
    req.tag.seq = seq++;
    req.words.assign(words.begin() + pos, words.begin() + pos + n);
    if (!masks.empty()) {
      req.masks.assign(masks.begin() + pos, masks.begin() + pos + n);
    }
    block.issue(std::move(req));
    step(block);
    pos += n;
  }
  steps(block, 2);  // let acks drain
}

/// Issues a (multi-key) search on a unit and runs until the response.
inline UnitResponse run_unit_search(CamUnit& unit, const std::vector<Word>& keys,
                                    unsigned* latency = nullptr, std::uint64_t seq = 7) {
  UnitRequest req;
  req.op = OpKind::kSearch;
  req.keys.assign(keys.begin(), keys.end());
  req.seq = seq;
  unit.issue(std::move(req));
  for (unsigned cycle = 1; cycle <= 32; ++cycle) {
    step(unit);
    if (unit.response().has_value() && unit.response()->seq == seq) {
      if (latency != nullptr) *latency = cycle;
      return *unit.response();
    }
  }
  throw SimError("testbench: unit search response never arrived");
}

/// Loads words into a unit through normal update beats.
inline void load_unit(CamUnit& unit, const std::vector<Word>& words,
                      const std::vector<std::uint64_t>& masks = {}) {
  std::size_t pos = 0;
  std::uint64_t seq = 5000;
  while (pos < words.size()) {
    const std::size_t n =
        std::min<std::size_t>(unit.config().words_per_beat(), words.size() - pos);
    UnitRequest req;
    req.op = OpKind::kUpdate;
    req.seq = seq++;
    req.words.assign(words.begin() + pos, words.begin() + pos + n);
    if (!masks.empty()) {
      req.masks.assign(masks.begin() + pos, masks.begin() + pos + n);
    }
    unit.issue(std::move(req));
    step(unit);
    pos += n;
  }
  steps(unit, CamUnit::update_latency() + 2);  // drain the update pipeline
}

}  // namespace dspcam::cam::test
