#include "src/cam/unit.h"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

#include "src/cam/mask.h"
#include "src/cam/match_kernel.h"
#include "src/common/error.h"

namespace dspcam::cam {

CamUnit::CamUnit(const UnitConfig& cfg)
    : cfg_(cfg),
      routing_(cfg.unit_size, cfg.initial_groups) {
  cfg_.validate();
  const unsigned n = cfg_.unit_size;
  if (cfg_.eval_mode == EvalMode::kReference) {
    blocks_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      blocks_.push_back(std::make_unique<CamBlock>(cfg_.block));
    }
    block_active_.assign(n, 0);
    active_blocks_.reserve(n);
  } else {
    // Worst-case plane words over every grouping: each group starts on a
    // word boundary, so sub-64-entry blocks may pad one word per group.
    const std::size_t entries = static_cast<std::size_t>(n) * cfg_.block.block_size;
    const std::size_t words =
        (entries + 63) / 64 + (cfg_.block.block_size % 64 != 0 ? n : 0);
    store_.resize(words, cfg_.block.parity);
    if (cfg_.block.encoding != EncodingScheme::kPriorityIndex) onehot_.assign(words, 0);
    planes_.resize(n);
    index_.reset(new unsigned[6 * std::size_t{n} + 1]());
    plane_blocks_ = index_.get();
    block_base_ = plane_blocks_ + n;
    fills_ = block_base_ + n;
    block_routed_ = fills_ + n;
    group_next_ = block_routed_ + n;
    group_first_ = group_next_ + n;  // n + 1 entries
    relayout();
  }
  // routed_/applied_ grow on the first write beats and keep their capacity
  // (a beat routes to at most two blocks per group), so construction leaves
  // them unallocated.
  controllers_.reserve(n);
  rebuild_controllers();
}

// One controller per group, each borrowing its group's run of the routing
// table; rebound (cursors reset) whenever the routing changes. controllers_
// was reserved for unit_size groups, so this never allocates.
void CamUnit::rebuild_controllers() {
  controllers_.clear();
  for (unsigned g = 0; g < routing_.groups(); ++g) {
    controllers_.emplace_back(routing_.blocks_of(g), cfg_.block.block_size);
  }
}

// Re-slices the unit-wide store among the current groups: group g's blocks
// in ascending physical id, back to back, the group starting on a fresh
// 64-entry word. Ascending order makes the first hit in plane order the
// lowest global address - the reduce the per-block collector performed.
// Binding clears each plane; nothing here allocates.
void CamUnit::relayout() {
  const unsigned bs = cfg_.block.block_size;
  const unsigned n_groups = routing_.groups();
  std::fill_n(group_first_, n_groups + 1, 0u);
  for (unsigned b = 0; b < cfg_.unit_size; ++b) ++group_first_[routing_.group_of(b) + 1];
  for (unsigned g = 0; g < n_groups; ++g) group_first_[g + 1] += group_first_[g];
  std::copy_n(group_first_, n_groups, group_next_);
  for (unsigned b = 0; b < cfg_.unit_size; ++b) {
    const unsigned g = routing_.group_of(b);
    const unsigned slot = group_next_[g]++;
    plane_blocks_[slot] = b;
    block_base_[b] = (slot - group_first_[g]) * bs;
  }
  // One-hot and match-count reduce from the valid-ANDed match words; the
  // priority scheme reads the first hit straight out of the kernel.
  const EncodingScheme scheme = cfg_.block.encoding == EncodingScheme::kPriorityIndex
                                    ? EncodingScheme::kPriorityIndex
                                    : EncodingScheme::kOneHot;
  std::size_t word = 0;
  for (unsigned g = 0; g < n_groups; ++g) {
    const unsigned nb = group_first_[g + 1] - group_first_[g];
    const std::size_t entries = static_cast<std::size_t>(nb) * bs;
    planes_[g].bind(cfg_.block, scheme, store_, word, entries);
    word += (entries + 63) / 64;
  }
}

// A search occupies every block of groups 0..keys-1 from its dispatch
// until its response retires, unless a reset flushes it first; a write
// occupies the blocks it routed to at its dispatch and apply edges; a reset
// occupies every block at its dispatch edge. Groups are laid out
// group-major, so the search part is a prefix count, and only the two
// newest write beats' routes are walked.
std::size_t CamUnit::active_block_count() const noexcept {
  if (!fast()) return active_blocks_.size();
  if (reset_edge_ == edge_) return cfg_.unit_size;
  std::size_t keys = 0;
  for (const Beat& s : searches_) {
    if (s.dispatch > edge_) break;
    if (s.retire >= edge_ && s.epoch == reset_epoch_) {
      keys = std::max(keys, s.req.keys.size());
    }
  }
  std::size_t n = group_first_[keys];
  for (const PlaneWrite& w : routed_) n += routing_.group_of(w.block) >= keys;
  for (std::size_t i = 0; applied_edge_ == edge_ && i < applied_.size(); ++i) {
    // A block routed again this edge was counted above.
    const unsigned b = applied_[i].block;
    n += routing_.group_of(b) >= keys && block_routed_[b] != static_cast<unsigned>(edge_);
  }
  return n;
}

void CamUnit::apply_routing_change() {
  rebuild_controllers();
  if (fast()) relayout();  // re-slices and clears the planes
  for (auto& b : blocks_) b->hard_reset();
  if (fast()) std::fill_n(fills_, cfg_.unit_size, 0u);
  clear_pipelines();
}

// Drops every queued beat, routed write and registered output; the blocks
// are reset or flushed by the caller.
void CamUnit::clear_pipelines() {
  std::fill(block_active_.begin(), block_active_.end(), 0);
  active_blocks_.clear();
  searches_.clear();
  writes_.clear();
  routed_.clear();
  applied_.clear();
  due_ = 0;
  last_issue_ = 0;
  resets_issued_ = reset_epoch_;  // the queued resets are gone
  reset_edge_ = kNever;
  response_edge_ = kNever;
  ack_edge_ = kNever;
}

void CamUnit::issue_to_block(unsigned block_id, BlockRequest request) {
  if (!block_active_[block_id]) {
    block_active_[block_id] = 1;
    active_blocks_.push_back(block_id);
  }
  blocks_[block_id]->issue(std::move(request));
}

void CamUnit::configure_groups(unsigned m) {
  if (!idle()) {
    throw SimError("CamUnit: group reconfiguration requires an idle unit");
  }
  routing_.rebuild(m);  // validates divisibility
  apply_routing_change();
}

void CamUnit::remap_block(unsigned block, unsigned group) {
  if (!idle()) {
    throw SimError("CamUnit: routing-table remap requires an idle unit");
  }
  routing_.remap(block, group);
  apply_routing_change();
}

void CamUnit::issue(UnitRequest request) {
  if (!can_accept()) {
    throw SimError("CamUnit: two bus beats issued in one cycle");
  }
  switch (request.op) {
    case OpKind::kIdle:
      return;
    case OpKind::kUpdate:
      if (request.words.empty() || request.words.size() > cfg_.words_per_beat()) {
        throw SimError("CamUnit: update beat carries " +
                       std::to_string(request.words.size()) + " words; bus fits 1.." +
                       std::to_string(cfg_.words_per_beat()));
      }
      if (!request.masks.empty() && request.masks.size() != request.words.size()) {
        throw SimError("CamUnit: per-entry mask array must parallel the data words");
      }
      break;
    case OpKind::kSearch:
      if (request.keys.empty() || request.keys.size() > groups()) {
        throw SimError("CamUnit: search beat carries " +
                       std::to_string(request.keys.size()) + " keys; the unit has " +
                       std::to_string(groups()) + " groups (one key per group)");
      }
      break;
    case OpKind::kReset:
      break;
    case OpKind::kInvalidate:
      if (!request.address.has_value() ||
          *request.address >= capacity_per_group()) {
        throw SimError("CamUnit: invalidate needs a group-local entry index");
      }
      break;
  }
  if (request.op == OpKind::kUpdate && request.address.has_value() &&
      *request.address + request.words.size() > capacity_per_group()) {
    throw SimError("CamUnit: addressed update runs past the group capacity");
  }
  // The next edge registers the beat; every later edge it acts at is a
  // fixed offset from there (Table VIII's latencies).
  last_issue_ = edge_ + 1;
  if (request.op == OpKind::kSearch) {
    Beat& beat = searches_.emplace_back();
    beat.dispatch = last_issue_ + kSearchPipeStages;
    beat.compare = beat.dispatch + 3;  // the block's pattern-detect latch
    beat.retire = beat.compare + (cfg_.block.output_buffer ? 1 : 0);
    // Every reset issued earlier dispatches by this beat's dispatch edge
    // (the update path is one stage longer), every later one after it.
    beat.epoch = resets_issued_;
    beat.req = std::move(request);
    // kFast routes nothing at dispatch: the compare reads the beat itself.
    mark_due(fast() ? beat.compare : beat.dispatch);
    mark_due(beat.retire);
    return;
  }
  resets_issued_ += request.op == OpKind::kReset;
  Beat& beat = writes_.emplace_back();
  beat.dispatch = last_issue_ + kUpdatePipeStages;
  beat.retire = beat.dispatch + 1;  // the block's 1-cycle write
  beat.req = std::move(request);
  mark_due(beat.dispatch);
  mark_due(beat.retire);
}

namespace {

/// The i-th block of a group's fill order; a group shrunk by remap_block()
/// may hold fewer blocks than group 0, whose capacity bounds addresses.
unsigned block_at(std::span<const unsigned> ids, std::size_t i) {
  if (i >= ids.size()) throw std::out_of_range("CamUnit: entry past the group's blocks");
  return ids[i];
}

void check_entry_index(const char* what, std::size_t entry, std::size_t entries) {
  if (entry >= entries) {
    throw SimError(std::string("CamUnit: ") + what + " index " + std::to_string(entry) +
                   " outside the unit's " + std::to_string(entries) +
                   " physical entries");
  }
}

}  // namespace

const CamBlock& CamUnit::block(unsigned index) const {
  if (fast()) {
    throw SimError(
        "CamUnit::block: block objects only exist in EvalMode::kReference; "
        "use entry()/block_fill()");
  }
  if (index >= blocks_.size()) {
    throw SimError("CamUnit::block: block " + std::to_string(index) +
                   " outside the unit's " + std::to_string(blocks_.size()) + " blocks");
  }
  return *blocks_[index];
}

EntryState CamUnit::entry(std::size_t index) const {
  const unsigned bs = cfg_.block.block_size;
  check_entry_index("entry", index, static_cast<std::size_t>(cfg_.unit_size) * bs);
  const unsigned b = static_cast<unsigned>(index / bs);
  const unsigned cell = static_cast<unsigned>(index % bs);
  EntryState e;
  if (fast()) {
    const FastPlane& p = planes_[routing_.group_of(b)];
    const std::size_t i = block_base_[b] + cell;
    e.stored = p.stored(i);
    e.mask = p.mask(i);
    e.valid = p.valid(i);
    e.parity = p.parity(i);
  } else {
    const CamBlock& blk = *blocks_[b];
    e.stored = blk.stored_word(cell);
    e.mask = blk.entry_mask(cell);
    e.valid = blk.entry_valid(cell);
    e.parity = blk.entry_parity(cell);
  }
  return e;
}

unsigned CamUnit::block_fill(unsigned b) const {
  if (b >= cfg_.unit_size) {
    throw SimError("CamUnit::block_fill: block " + std::to_string(b) +
                   " outside the unit's " + std::to_string(cfg_.unit_size) + " blocks");
  }
  return fast() ? fills_[b] : blocks_[b]->fill();
}

std::string CamUnit::match_kernel_name() const {
  return fast() ? planes_[0].kernel()->name : "reference";
}

void CamUnit::poke_entry(std::size_t entry, Word stored, std::uint64_t mask,
                         bool valid, bool parity) {
  const unsigned bs = cfg_.block.block_size;
  check_entry_index("poke_entry", entry, static_cast<std::size_t>(cfg_.unit_size) * bs);
  const unsigned b = static_cast<unsigned>(entry / bs);
  const unsigned cell = static_cast<unsigned>(entry % bs);
  if (fast()) {
    plane_of(b).poke(block_base_[b] + cell, stored, mask, valid, parity);
  } else {
    blocks_[b]->poke_entry(cell, stored, mask, valid, parity);
  }
}

std::vector<std::uint64_t> CamUnit::snapshot_cursors() const {
  std::vector<std::uint64_t> cursors;
  cursors.reserve(1 + 3 * controllers_.size() + cfg_.unit_size);
  cursors.push_back(controllers_.size());
  for (const auto& c : controllers_) {
    cursors.push_back(c.stored());
    cursors.push_back(c.current());
    cursors.push_back(c.offset());
  }
  for (unsigned b = 0; b < cfg_.unit_size; ++b) cursors.push_back(block_fill(b));
  return cursors;
}

void CamUnit::restore_cursors(const std::vector<std::uint64_t>& cursors) {
  const std::size_t want = 1 + 3 * controllers_.size() + cfg_.unit_size;
  if (cursors.size() != want || cursors[0] != controllers_.size()) {
    throw SimError("CamUnit: cursor vector shape mismatch (got " +
                   std::to_string(cursors.size()) + " values for " +
                   std::to_string(controllers_.size()) + " groups / " +
                   std::to_string(cfg_.unit_size) + " blocks; want " +
                   std::to_string(want) + ")");
  }
  for (std::size_t i = 1; i < cursors.size(); ++i) {
    if (cursors[i] > 0xFFFFFFFFull) {
      throw SimError("CamUnit: restored cursor value does not fit 32 bits");
    }
  }
  std::size_t pos = 1;
  for (auto& c : controllers_) {
    const std::uint64_t stored = cursors[pos++];
    const std::uint64_t current = cursors[pos++];
    const std::uint64_t offset = cursors[pos++];
    c.restore(static_cast<unsigned>(stored), static_cast<unsigned>(current),
              static_cast<unsigned>(offset));
  }
  for (unsigned b = 0; b < cfg_.unit_size; ++b) {
    const std::uint64_t fill = cursors[pos++];
    if (!fast()) {
      blocks_[b]->set_fill(static_cast<unsigned>(fill));
    } else if (fill > cfg_.block.block_size) {
      throw SimError("CamBlock: restored fill pointer " + std::to_string(fill) +
                     " exceeds the block size " +
                     std::to_string(cfg_.block.block_size));
    } else {
      fills_[b] = static_cast<unsigned>(fill);
    }
  }
}

void CamUnit::flush_pipelines() {
  for (auto& b : blocks_) b->flush_pipeline();
  clear_pipelines();
}

unsigned CamUnit::stored_per_group() const noexcept {
  unsigned lo = ~0u;
  for (const auto& c : controllers_) lo = std::min(lo, c.stored());
  return controllers_.empty() ? 0 : lo;
}

unsigned CamUnit::capacity_per_group() const noexcept {
  return controllers_.empty() ? 0 : controllers_[0].capacity();
}

// Replicates an update beat to every CAM group and routes each group's copy
// to the block(s) chosen by its Block Address Controller. The routing is
// shared by both eval modes: it yields block-level writes, which kReference
// issues to the blocks and kFast applies to the planes at the next edge
// (the blocks' 1-cycle update path).
void CamUnit::dispatch_update(Beat& beat) {
  const UnitRequest& req = beat.req;
  const unsigned bs = cfg_.block.block_size;
  if (req.op == OpKind::kReset) {
    // Every block clears at the next edge and flushes what it had in
    // flight; searches dispatched after this (same edge included) belong to
    // the new epoch and survive.
    ++reset_epoch_;
    reset_edge_ = edge_;
    if (!fast()) {
      for (unsigned b = 0; b < cfg_.unit_size; ++b) {
        BlockRequest r;
        r.op = OpKind::kReset;
        issue_to_block(b, std::move(r));
      }
    }
    for (auto& c : controllers_) c.reset();
    return;
  }

  UnitUpdateAck& ack = beat.ack;
  ack.seq = req.seq;
  if (req.op == OpKind::kInvalidate) {
    // Group-local entry index -> (block offset, cell) within every group's
    // copy, via the default sequential fill layout.
    const std::uint32_t entry = *req.address;
    ack.words_written = 1;
    for (unsigned g = 0; g < routing_.groups(); ++g) {
      PlaneWrite w;
      w.op = OpKind::kInvalidate;
      w.block = block_at(routing_.blocks_of(g), entry / bs);
      w.cell = entry % bs;
      routed_.push_back(w);
    }
  } else if (!req.masks.empty() && cfg_.block.cell.kind == CamKind::kBinary) {
    throw SimError("CamBlock: binary CAM updates cannot carry per-entry masks");
  } else if (req.address.has_value()) {
    // Addressed write: split the beat at block boundaries inside each
    // group's copy; the Block Address Controllers are untouched.
    ack.words_written = static_cast<unsigned>(req.words.size());
    for (unsigned g = 0; g < routing_.groups(); ++g) {
      const std::span<const unsigned> ids = routing_.blocks_of(g);
      unsigned pos = 0;
      std::uint32_t entry = *req.address;
      while (pos < req.words.size()) {
        PlaneWrite w;
        w.block = block_at(ids, entry / bs);
        w.cell = entry % bs;
        w.word_pos = pos;
        w.count = std::min<unsigned>(bs - w.cell,
                                     static_cast<unsigned>(req.words.size()) - pos);
        routed_.push_back(w);
        pos += w.count;
        entry += w.count;
      }
    }
  } else {
    const unsigned n_words = static_cast<unsigned>(req.words.size());
    ack.words_written = n_words;  // reduced below if any group lacks room
    bool all_full = true;
    for (unsigned g = 0; g < routing_.groups(); ++g) {
      unsigned written = 0;
      // Fill the current block, spilling into the next ones, until the
      // words run out or the group is full.
      while (written < n_words) {
        const BlockAddressController::Segment seg = controllers_[g].claim(n_words - written);
        if (seg.count == 0) break;
        PlaneWrite w;
        w.block = seg.block;
        w.fill = true;
        w.word_pos = written;
        w.count = seg.count;
        routed_.push_back(w);
        written += seg.count;
      }
      ack.words_written = std::min(ack.words_written, written);
      all_full = all_full && controllers_[g].full();
    }
    ack.unit_full = all_full;
  }

  if (fast()) {
    for (const PlaneWrite& w : routed_) block_routed_[w.block] = static_cast<unsigned>(edge_);
    return;
  }
  for (const PlaneWrite& w : routed_) {
    BlockRequest r;
    r.op = w.op;
    r.tag.seq = req.seq;
    r.tag.group = static_cast<std::uint16_t>(routing_.group_of(w.block));
    if (!w.fill) r.address = w.cell;
    if (w.op == OpKind::kUpdate) {
      r.words.assign(req.words.begin() + w.word_pos,
                     req.words.begin() + w.word_pos + w.count);
      if (!req.masks.empty()) {
        r.masks.assign(req.masks.begin() + w.word_pos,
                       req.masks.begin() + w.word_pos + w.count);
      }
    }
    issue_to_block(w.block, std::move(r));
  }
  routed_.clear();
}

// Routes each key to its CAM group, replicating it to every block of that
// group for parallel comparison. Mapping function: the i-th key of the beat
// is served by group i. Every group holds a full copy of the data, so any
// assignment of distinct groups is equivalent; this one is the paper's
// "each search key assigned to a distinct CAM group". kReference only: kFast
// has nothing to route, its compare reads the beat's own keys.
void CamUnit::dispatch_search(const Beat& beat) {
  const UnitRequest& req = beat.req;
  for (std::size_t i = 0; i < req.keys.size(); ++i) {
    const unsigned g = static_cast<unsigned>(i);
    for (unsigned block_id : routing_.blocks_of(g)) {
      BlockRequest r;
      r.op = OpKind::kSearch;
      r.key = req.keys[i];
      r.tag.seq = req.seq;
      r.tag.key_index = static_cast<std::uint16_t>(i);
      r.tag.group = static_cast<std::uint16_t>(g);
      issue_to_block(block_id, std::move(r));
    }
  }
}

// Registers the unit-level response of the search collected at this edge.
// kFast reads the compare results of its compare edge; kReference reduces
// the block responses that just latched (all blocks answer a beat in the
// same cycle, their pipelines being identical). A search flushed by a
// reset dispatched after it yields no response and leaves its queue.
void CamUnit::collect(const Beat& beat) {
  const BeatVec<Word>& keys = beat.req.keys;
  if (fast() && beat.epoch != reset_epoch_) {
    searches_.pop_front();
    return;
  }
  if (!response_.has_value()) response_.emplace();
  UnitResponse& resp = *response_;  // reuses the last response's buffer
  resp.seq = beat.req.seq;
  resp.results.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto& r = resp.results[i];
    r = UnitSearchResult{};
    r.key = keys[i];
    r.group = static_cast<std::uint16_t>(i);
    if (fast()) {
      const KeyMatch& m = matches_[beat.compare & 1][i];
      r.hit = m.hit;
      r.global_address = m.address;
      r.match_count = m.count;
      r.parity_error = m.parity_error;
    }
  }

  unsigned collected = 0;
  // Only active blocks can hold a freshly latched response.
  for (unsigned b : active_blocks_) {
    const auto& br = blocks_[b]->response();
    if (!br.has_value()) continue;
    if (br->tag.seq != resp.seq) {
      throw SimError("CamUnit: block response sequence mismatch (collector skew)");
    }
    ++collected;
    auto& r = resp.results.at(br->tag.key_index);
    r.match_count += br->match_count;
    if (br->parity_errors != 0) r.parity_error = true;
    if (br->hit) {
      const std::uint32_t addr = b * cfg_.block.block_size + br->first_match;
      if (!r.hit || addr < r.global_address) r.global_address = addr;
      r.hit = true;
    }
  }
  if (!fast() && collected == 0) {
    // A reset beat overtook this search inside the blocks and flushed it:
    // no result beat appears (blocks otherwise always answer, hit or miss).
    searches_.pop_front();
    return;
  }
  response_edge_ = edge_;
}

// kFast: the compare whose pattern-detect register latches at this edge,
// against the pre-edge planes, one plane compare per key, reduced to the
// unit result. Collected at this same edge, or one edge later with the
// output buffer; a reset dispatched after the search flushes it.
void CamUnit::compare(const Beat& beat) {
  if (beat.epoch != reset_epoch_) return;
  const BeatVec<Word>& keys = beat.req.keys;
  auto& out = matches_[beat.compare & 1];
  out.resize(keys.size());
  const unsigned bs = cfg_.block.block_size;
  const EncodingScheme scheme = cfg_.block.encoding;
  std::uint64_t* words = onehot_.data();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const unsigned g = static_cast<unsigned>(i);
    FastPlane& plane = planes_[g];
    EncodedMatch em;
    plane.compare(keys[i], em, words);
    KeyMatch& m = out[i];
    m = KeyMatch{};
    m.hit = em.hit;
    if (em.hit) {
      // The first hit in plane order is the lowest global address: priority
      // reports its cell; the other schemes report no cell, only the block.
      std::size_t first = em.first_match;
      if (scheme != EncodingScheme::kPriorityIndex) {
        std::size_t wi = 0;
        while (words[wi] == 0) ++wi;
        first = wi * 64 + static_cast<std::size_t>(std::countr_zero(words[wi]));
        if (scheme == EncodingScheme::kMatchCount) {
          for (std::size_t w = wi; w < plane.words(); ++w) {
            m.count += static_cast<std::uint32_t>(std::popcount(words[w]));
          }
        }
      }
      const unsigned block = plane_blocks_[group_first_[g] + first / bs];
      m.address = block * bs;
      if (scheme == EncodingScheme::kPriorityIndex) m.address += first % bs;
    }
    // Parity is checked against the same pre-edge state the compare read.
    m.parity_error = cfg_.block.parity && plane.parity_errors() != 0;
  }
}

// kFast: applies the write-class beat dispatched at the previous edge,
// after this edge's compare read the pre-edge planes. A reset clears every
// plane and fill pointer.
void CamUnit::apply(const Beat& beat) {
  if (beat.req.op == OpKind::kReset) {
    for (unsigned g = 0; g < routing_.groups(); ++g) planes_[g].clear();
    std::fill_n(fills_, cfg_.unit_size, 0u);
    return;
  }
  const unsigned bs = cfg_.block.block_size;
  const BeatVec<Word>& words = beat.req.words;
  const std::vector<std::uint64_t>& masks = beat.req.masks;
  const std::uint64_t default_mask = width_mask(cfg_.block.cell.data_width);
  for (const PlaneWrite& w : routed_) {
    FastPlane& plane = plane_of(w.block);
    const std::size_t base = block_base_[w.block];
    if (w.op == OpKind::kInvalidate) {
      plane.invalidate(base + w.cell);
      continue;
    }
    unsigned& fill = fills_[w.block];
    for (unsigned k = 0; k < w.count; ++k) {
      if (w.fill && fill >= bs) break;
      const std::size_t cell = w.fill ? fill++ : w.cell + k;
      const unsigned pos = w.word_pos + k;
      plane.write(base + cell, words[pos], masks.empty() ? default_mask : masks[pos]);
    }
  }
  // The routed blocks stay active through this edge.
  std::swap(routed_, applied_);
  routed_.clear();
  applied_edge_ = edge_;
}

// An edge at which some queued beat acts. Within the edge, in order:
//   1. kReference clocks its active blocks (beats dispatched last edge are
//      processed now);
//   2. beats whose output was visible at an earlier edge leave;
//   3. kFast: the search latching now compares against the pre-edge planes;
//   4. the write-class beat dispatched last edge applies (kFast) and acks;
//   5. the search due for collection registers the response;
//   6. the write-class beat due for dispatch routes to the planes or
//      blocks, then (kReference) the search due for dispatch issues;
//   7. kReference prunes blocks that went quiescent.
void CamUnit::commit_due(std::uint64_t bit) {
  for (unsigned b : active_blocks_) blocks_[b]->commit();
  if ((due_ & bit) != 0) {
    due_ &= ~bit;
    while (!searches_.empty() && searches_.front().retire < edge_) searches_.pop_front();
    while (!writes_.empty() && writes_.front().retire < edge_) writes_.pop_front();

    for (std::size_t i = 0; fast() && i < searches_.size() && i < 2; ++i) {
      if (searches_[i].compare == edge_) compare(searches_[i]);
    }
    if (!writes_.empty() && writes_.front().retire == edge_) {
      const Beat& w = writes_.front();
      if (fast()) apply(w);
      if (w.req.op == OpKind::kReset) {
        writes_.pop_front();
      } else {
        ack_ = w.ack;
        ack_edge_ = edge_;
      }
    }
    if (!searches_.empty() && searches_.front().retire == edge_) collect(searches_.front());

    // The newest beats are at the back; at most one per queue dispatches.
    for (std::size_t i = writes_.size(); i-- > 0 && writes_[i].dispatch >= edge_;) {
      if (writes_[i].dispatch == edge_) dispatch_update(writes_[i]);
    }
    for (std::size_t i = searches_.size(); !fast() && i-- > 0 && searches_[i].dispatch >= edge_;) {
      if (searches_[i].dispatch == edge_) dispatch_search(searches_[i]);
    }
  }

  std::size_t live = 0;
  for (unsigned b : active_blocks_) {
    if (blocks_[b]->quiescent()) {
      block_active_[b] = 0;
    } else {
      active_blocks_[live++] = b;
    }
  }
  active_blocks_.resize(live);
}

}  // namespace dspcam::cam
