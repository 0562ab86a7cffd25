#include "src/cam/unit.h"

#include <algorithm>
#include <bit>

#include "src/cam/mask.h"
#include "src/cam/match_kernel.h"
#include "src/common/error.h"

namespace dspcam::cam {

CamUnit::CamUnit(const UnitConfig& cfg)
    : cfg_(cfg),
      routing_(cfg.unit_size, cfg.initial_groups),
      search_pipe_(kSearchPipeStages),
      update_pipe_(kUpdatePipeStages),
      meta_pipe_(cfg.block.output_buffer ? 3u : 2u),
      ack_pipe_(1) {
  cfg_.validate();
  const unsigned n = cfg_.unit_size;
  spare_metas_.reserve(kSearchPipeStages + 4);  // search + meta pipes in flight
  if (cfg_.block.eval_mode == EvalMode::kReference) {
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
    plane_blocks_.assign(n, 0);
    group_first_.assign(n + 1, 0);
    group_next_.assign(n, 0);
    block_base_.assign(n, 0);
    fills_.assign(n, 0);
    block_busy_until_.assign(n, 0);
    group_busy_until_.assign(n, 0);
    writes_.reserve(2 * n);
    write_words_.reserve(cfg_.words_per_beat());
    write_masks_.reserve(cfg_.words_per_beat());
    matches_.reserve(n);
    buffered_.reserve(n);
    relayout();
  }
  rebuild_controllers();
}

void CamUnit::rebuild_controllers() {
  if (controllers_.size() == routing_.groups()) {
    for (unsigned g = 0; g < routing_.groups(); ++g) {
      controllers_[g].assign_blocks(routing_.blocks_of(g));
    }
    return;
  }
  controllers_.clear();
  controllers_.reserve(routing_.groups());
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
  std::fill(group_first_.begin(), group_first_.end(), 0);
  for (unsigned b = 0; b < cfg_.unit_size; ++b) ++group_first_[routing_.group_of(b) + 1];
  for (unsigned g = 0; g < n_groups; ++g) group_first_[g + 1] += group_first_[g];
  std::copy(group_first_.begin(), group_first_.begin() + n_groups, group_next_.begin());
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

bool CamUnit::idle() const noexcept {
  if (pending_.has_value()) return false;
  if (!search_pipe_.drained() || !update_pipe_.drained()) return false;
  if (!meta_pipe_.drained() || !ack_pipe_.drained()) return false;
  if (fast()) return busy_until_ <= edge_;
  // Blocks off the active list are quiescent, hence idle.
  for (unsigned b : active_blocks_) {
    if (!blocks_[b]->idle()) return false;
  }
  return true;
}

std::size_t CamUnit::active_block_count() const noexcept {
  if (!fast()) return active_blocks_.size();
  if (busy_until_ <= edge_) return 0;
  std::size_t n = 0;
  for (unsigned g = 0; g < routing_.groups(); ++g) {
    const bool searching = group_busy_until_[g] > edge_;
    for (unsigned i = group_first_[g]; i < group_first_[g + 1]; ++i) {
      n += searching || block_busy_until_[plane_blocks_[i]] > edge_;
    }
  }
  return n;
}

void CamUnit::mark_block_busy(unsigned block, std::uint64_t until) noexcept {
  block_busy_until_[block] = std::max(block_busy_until_[block], until);
  busy_until_ = std::max(busy_until_, until);
}

// The grouping defines the data layout: after a routing-table change the
// controllers and planes are rebuilt and every content and pipeline stage
// cleared (the unit reloads from empty).
void CamUnit::apply_routing_change() {
  rebuild_controllers();
  if (fast()) relayout();  // re-slices and clears the planes
  for (auto& b : blocks_) b->hard_reset();
  std::fill(block_active_.begin(), block_active_.end(), 0);
  active_blocks_.clear();
  std::fill(fills_.begin(), fills_.end(), 0);
  std::fill(block_busy_until_.begin(), block_busy_until_.end(), 0);
  std::fill(group_busy_until_.begin(), group_busy_until_.end(), 0);
  busy_until_ = 0;
  reset_pending_ = false;
  writes_.clear();
  search_pipe_.clear();
  update_pipe_.clear();
  meta_pipe_.clear();
  ack_pipe_.clear();
  pending_.reset();
  response_.reset();
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
  if (pending_.has_value()) {
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
  pending_ = std::move(request);
}

namespace {

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
  std::fill(block_active_.begin(), block_active_.end(), 0);
  active_blocks_.clear();
  std::fill(block_busy_until_.begin(), block_busy_until_.end(), 0);
  std::fill(group_busy_until_.begin(), group_busy_until_.end(), 0);
  busy_until_ = 0;
  reset_pending_ = false;
  writes_.clear();
  search_pipe_.clear();
  update_pipe_.clear();
  meta_pipe_.clear();
  ack_pipe_.clear();
  pending_.reset();
  response_.reset();
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
void CamUnit::dispatch_update(const UnitRequest& req) {
  const unsigned bs = cfg_.block.block_size;
  if (req.op == OpKind::kReset) {
    if (fast()) {
      // Every block clears at the next edge and flushes what it had in
      // flight, so all earlier activity ends there too; searches dispatched
      // after this (same edge included) belong to the new epoch and survive.
      reset_pending_ = true;
      ++reset_epoch_;
      std::fill(block_busy_until_.begin(), block_busy_until_.end(), edge_ + 1);
      std::fill(group_busy_until_.begin(), group_busy_until_.end(), 0);
      busy_until_ = edge_ + 1;
    } else {
      for (unsigned b = 0; b < cfg_.unit_size; ++b) {
        BlockRequest r;
        r.op = OpKind::kReset;
        issue_to_block(b, std::move(r));
      }
    }
    for (auto& c : controllers_) c.reset();
    return;
  }

  UnitUpdateAck ack;
  ack.seq = req.seq;
  const std::size_t first = writes_.size();
  if (req.op == OpKind::kInvalidate) {
    // Group-local entry index -> (block offset, cell) within every group's
    // copy, via the default sequential fill layout.
    const std::uint32_t entry = *req.address;
    ack.words_written = 1;
    for (unsigned g = 0; g < routing_.groups(); ++g) {
      PlaneWrite w;
      w.op = OpKind::kInvalidate;
      w.block = routing_.blocks_of(g).at(entry / bs);
      w.cell = entry % bs;
      writes_.push_back(w);
    }
  } else if (!req.masks.empty() && cfg_.block.cell.kind == CamKind::kBinary) {
    throw SimError("CamBlock: binary CAM updates cannot carry per-entry masks");
  } else if (req.address.has_value()) {
    // Addressed write: split the beat at block boundaries inside each
    // group's copy; the Block Address Controllers are untouched.
    ack.words_written = static_cast<unsigned>(req.words.size());
    for (unsigned g = 0; g < routing_.groups(); ++g) {
      const auto& ids = routing_.blocks_of(g);
      unsigned pos = 0;
      std::uint32_t entry = *req.address;
      while (pos < req.words.size()) {
        PlaneWrite w;
        w.block = ids.at(entry / bs);
        w.cell = entry % bs;
        w.word_pos = pos;
        w.count = std::min<unsigned>(bs - w.cell,
                                     static_cast<unsigned>(req.words.size()) - pos);
        writes_.push_back(w);
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
      for (const auto& seg : controllers_[g].allocate(n_words)) {
        PlaneWrite w;
        w.block = seg.block;
        w.fill = true;
        w.word_pos = written;
        w.count = seg.count;
        writes_.push_back(w);
        written += seg.count;
      }
      ack.words_written = std::min(ack.words_written, written);
      all_full = all_full && controllers_[g].full();
    }
    ack.unit_full = all_full;
  }
  ack_pipe_.push(ack);

  if (fast()) {
    write_words_.assign(req.words.begin(), req.words.end());
    write_masks_.assign(req.masks.begin(), req.masks.end());
    for (std::size_t i = first; i < writes_.size(); ++i) {
      mark_block_busy(writes_[i].block, edge_ + 2);
    }
    return;
  }
  for (const PlaneWrite& w : writes_) {
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
  writes_.clear();
}

// Routes each key to its CAM group, replicating it to every block of that
// group for parallel comparison.
void CamUnit::dispatch_search(const UnitRequest& req) {
  SearchMeta meta;
  if (!spare_metas_.empty()) {  // recycled buffers, already cleared
    meta = std::move(spare_metas_.back());
    spare_metas_.pop_back();
  }
  meta.seq = req.seq;
  meta.epoch = reset_epoch_;
  // kFast: the group's blocks stay active until their response retires.
  const std::uint64_t busy = edge_ + (cfg_.block.output_buffer ? 5 : 4);
  for (std::size_t i = 0; i < req.keys.size(); ++i) {
    // Mapping function: the i-th key of the beat is served by group i. Every
    // group holds a full copy of the data, so any assignment of distinct
    // groups is equivalent; this one is the paper's "each search key
    // assigned to a distinct CAM group".
    const unsigned g = static_cast<unsigned>(i);
    meta.keys.push_back(req.keys[i]);
    meta.groups.push_back(g);
    if (fast()) {
      group_busy_until_[g] = busy;
      busy_until_ = std::max(busy_until_, busy);
      continue;
    }
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
  meta_pipe_.push(std::move(meta));
}

// Gathers this cycle's block responses into per-key unit results. All blocks
// answer a given beat in the same cycle (their pipelines are identical), so
// the meta record popping out of meta_pipe_ names exactly the beat whose
// responses are on the wires now.
void CamUnit::collect_responses() {
  // The previous response was consumed last cycle (the owner copies it out
  // of the output register), so its result vector is dead: reclaim the heap
  // buffer instead of freeing and re-allocating it every beat.
  if (response_.has_value()) {
    spare_results_ = std::move(response_->results);
    spare_results_.clear();
  }

  const auto& meta = meta_pipe_.output();
  if (!meta.has_value()) {
    response_.reset();
    return;
  }

  UnitResponse unit_resp;
  unit_resp.seq = meta->seq;
  unit_resp.results = std::move(spare_results_);
  unit_resp.results.resize(meta->keys.size());
  for (std::size_t i = 0; i < meta->keys.size(); ++i) {
    auto& r = unit_resp.results[i];
    r.key = meta->keys[i];
    r.group = static_cast<std::uint16_t>(meta->groups[i]);
    r.hit = false;
    r.global_address = 0;
    r.match_count = 0;
    r.shard = 0;
    r.parity_error = false;
    r.shard_failed = false;
  }

  if (fast()) {
    if (meta->epoch != reset_epoch_) {
      // A reset dispatched after this search flushed it from the pipeline:
      // no result beat appears (the per-block path's collected == 0 case).
      spare_results_ = std::move(unit_resp.results);
      spare_results_.clear();
      response_.reset();
      return;
    }
    for (std::size_t i = 0; i < meta->keys.size(); ++i) {
      auto& r = unit_resp.results[i];
      const KeyMatch& m = matches_[i];
      r.hit = m.hit;
      r.global_address = m.address;
      r.match_count = m.count;
      r.parity_error = m.parity_error;
    }
    response_ = std::move(unit_resp);
    return;
  }

  unsigned collected = 0;
  // Only active blocks can hold a freshly latched response.
  for (unsigned b : active_blocks_) {
    const auto& resp = blocks_[b]->response();
    if (!resp.has_value()) continue;
    if (resp->tag.seq != meta->seq) {
      throw SimError("CamUnit: block response sequence mismatch (collector skew)");
    }
    ++collected;
    auto& r = unit_resp.results.at(resp->tag.key_index);
    r.match_count += resp->match_count;
    if (resp->parity_errors != 0) r.parity_error = true;
    if (resp->hit) {
      const std::uint32_t addr = b * cfg_.block.block_size + resp->first_match;
      if (!r.hit || addr < r.global_address) r.global_address = addr;
      r.hit = true;
    }
  }
  if (collected == 0) {
    // A reset beat overtook this search inside the blocks and flushed it:
    // no result beat appears on the output interface (blocks otherwise
    // always answer, hit or miss).
    spare_results_ = std::move(unit_resp.results);
    spare_results_.clear();
    response_.reset();
    return;
  }
  response_ = std::move(unit_resp);
}

// Recycles the key/group vectors of the SearchMeta record that retired at
// this edge; collect_responses() has already read it, and the register is
// overwritten at the coming meta_pipe_ shift.
void CamUnit::reclaim_meta_buffers() {
  auto& retired = meta_pipe_.mutable_output();
  if (!retired.has_value() || spare_metas_.size() == spare_metas_.capacity()) return;
  retired->keys.clear();
  retired->groups.clear();
  spare_metas_.push_back(std::move(*retired));
}

// kFast: runs the compare whose pattern-detect register latches at this
// edge - the search dispatched three edges ago - against the pre-edge
// planes, one plane compare per key, and reduces it to the unit result.
// Without the output buffer it is collected at this same edge (matches_);
// with it, one edge later (buffered_ rotates into matches_).
void CamUnit::compare_retiring() {
  const bool buffered = cfg_.block.output_buffer;
  if (buffered) std::swap(matches_, buffered_);
  const auto& meta = buffered ? meta_pipe_.peek_last() : meta_pipe_.output();
  // A reset dispatched after the search flushes its compare.
  if (!meta.has_value() || meta->epoch != reset_epoch_) return;
  auto& out = buffered ? buffered_ : matches_;
  out.resize(meta->keys.size());
  const unsigned bs = cfg_.block.block_size;
  const EncodingScheme scheme = cfg_.block.encoding;
  std::uint64_t* words = onehot_.data();
  for (std::size_t i = 0; i < meta->keys.size(); ++i) {
    const unsigned g = meta->groups[i];
    FastPlane& plane = planes_[g];
    EncodedMatch em;
    plane.compare(meta->keys[i], em, words);
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

// kFast: applies the write-class beats dispatched at the previous edge,
// after this edge's compare read the pre-edge planes.
void CamUnit::apply_plane_writes() {
  const unsigned bs = cfg_.block.block_size;
  if (reset_pending_) {
    for (unsigned g = 0; g < routing_.groups(); ++g) planes_[g].clear();
    std::fill(fills_.begin(), fills_.end(), 0);
    reset_pending_ = false;
  }
  const std::uint64_t default_mask = width_mask(cfg_.block.cell.data_width);
  for (const PlaneWrite& w : writes_) {
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
      plane.write(base + cell, write_words_[pos],
                  write_masks_.empty() ? default_mask : write_masks_[pos]);
    }
  }
  writes_.clear();
}

void CamUnit::commit() {
  if (fast()) {
    // 1-3. The shared pipeline: this edge's compare (flushed if a reset
    //      overtook it), then last edge's writes and resets.
    ++edge_;
    compare_retiring();
    apply_plane_writes();
  } else {
    // 1. Clock the active blocks; beats dispatched last cycle are processed
    //    now. Blocks off the list are quiescent: committing them would be a
    //    no-op (that invariant is what activity gating rests on).
    for (unsigned b : active_blocks_) blocks_[b]->commit();
  }

  // 2. Result collection: reduce the block responses that just latched and
  //    register the unit-level response (the output-interface register).
  collect_responses();
  reclaim_meta_buffers();

  // 3. Advance the unit pipelines and dispatch emerging beats to the blocks
  //    (they will process them at the next clock edge).
  if (pending_) {
    if (pending_->op == OpKind::kSearch) {
      search_pipe_.push(std::move(*pending_));
    } else {
      update_pipe_.push(std::move(*pending_));  // update, invalidate, reset
    }
    pending_.reset();
  }
  search_pipe_.shift();
  update_pipe_.shift();

  if (update_pipe_.output().has_value()) dispatch_update(*update_pipe_.output());
  if (search_pipe_.output().has_value()) dispatch_search(*search_pipe_.output());

  // The meta/ack side pipes shift after dispatch so records pushed above are
  // part of this clock edge.
  meta_pipe_.shift();
  ack_pipe_.shift();

  // 4. Prune blocks that have gone quiescent (everything retired, nothing
  //    pending). Blocks that just received a beat in step 3 are not
  //    quiescent and stay on the list for the next edge.
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
