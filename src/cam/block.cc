#include "src/cam/block.h"

#include <algorithm>

#include "src/cam/match_kernel.h"
#include "src/common/bitops.h"
#include "src/common/error.h"

namespace dspcam::cam {

CamBlock::CamBlock(const BlockConfig& cfg) : cfg_(cfg), tags_(2), out_buf_(1) {
  cfg_.validate();
  if (cfg_.eval_mode == EvalMode::kReference) {
    cells_.reserve(cfg_.block_size);
    for (unsigned i = 0; i < cfg_.block_size; ++i) {
      cells_.push_back(std::make_unique<CamCell>(cfg_.cell));
    }
    match_scratch_ = BitVec(cfg_.block_size);
    if (cfg_.parity) {
      parity_.assign((cfg_.block_size + 63) / 64, 0);
      reset_parity_bits();
    }
  } else {
    store_.resize((cfg_.block_size + 63) / 64, cfg_.parity);
    plane_.bind(cfg_, cfg_.encoding, store_, 0, cfg_.block_size);
    // One-hot blocks pre-seed the recycled raw buffer so the first search
    // does not allocate inside the sweep loop (DESIGN.md §14).
    if (cfg_.encoding == EncodingScheme::kOneHot) ensure_onehot_pool();
  }
}

void CamBlock::reset_parity_bits() {
  if (parity_.empty()) return;
  // A never-written entry is (stored=0, mask=width_mask, valid=false) in
  // both eval modes, so its parity is popcount(width_mask) & 1.
  const bool init = entry_parity_of(0, width_mask(cfg_.cell.data_width), false);
  std::fill(parity_.begin(), parity_.end(), init ? ~std::uint64_t{0} : 0);
}

void CamBlock::set_parity_bit(unsigned index, bool value) noexcept {
  const std::uint64_t lane = std::uint64_t{1} << (index % 64);
  if (value) {
    parity_[index / 64] |= lane;
  } else {
    parity_[index / 64] &= ~lane;
  }
}

std::uint32_t CamBlock::count_parity_errors() const {
  if (fast()) return plane_.parity_errors();
  std::uint32_t errors = 0;
  for (unsigned i = 0; i < cfg_.block_size; ++i) {
    if (entry_parity_of(stored_word(i), entry_mask(i), entry_valid(i)) != parity_bit(i)) {
      ++errors;
    }
  }
  return errors;
}

void CamBlock::issue(BlockRequest request) {
  switch (request.op) {
    case OpKind::kIdle:
      return;
    case OpKind::kReset:
      pending_reset_ = true;
      return;
    case OpKind::kInvalidate: {
      if (pending_update_.has_value()) {
        throw SimError("CamBlock: two update-class beats issued in one cycle");
      }
      if (!request.address.has_value() || *request.address >= cfg_.block_size) {
        throw SimError("CamBlock: invalidate needs a cell address in range");
      }
      pending_update_ = std::move(request);
      return;
    }
    case OpKind::kUpdate: {
      if (pending_update_.has_value()) {
        throw SimError("CamBlock: two update beats issued in one cycle");
      }
      if (request.address.has_value() &&
          *request.address + request.words.size() > cfg_.block_size) {
        throw SimError("CamBlock: addressed update runs past the block");
      }
      if (request.words.empty() || request.words.size() > cfg_.words_per_beat()) {
        throw SimError("CamBlock: update beat carries " +
                       std::to_string(request.words.size()) + " words; bus fits 1.." +
                       std::to_string(cfg_.words_per_beat()));
      }
      if (!request.masks.empty() && request.masks.size() != request.words.size()) {
        throw SimError("CamBlock: per-entry mask array must parallel the data words");
      }
      if (!request.masks.empty() && cfg_.cell.kind == CamKind::kBinary) {
        throw SimError("CamBlock: binary CAM updates cannot carry per-entry masks");
      }
      pending_update_ = std::move(request);
      return;
    }
    case OpKind::kSearch: {
      if (pending_search_.has_value()) {
        throw SimError("CamBlock: two search beats issued in one cycle");
      }
      pending_search_ = std::move(request);
      return;
    }
  }
}

const CamCell& CamBlock::cell(unsigned index) const {
  if (cfg_.eval_mode != EvalMode::kReference) {
    throw SimError(
        "CamBlock::cell: per-cell DSP state only exists in EvalMode::kReference; "
        "use stored_word()/entry_mask()/entry_valid()");
  }
  if (index >= cfg_.block_size) throw SimError("CamBlock: cell index out of range");
  return *cells_[index];
}

Word CamBlock::stored_word(unsigned index) const {
  if (index >= cfg_.block_size) throw SimError("CamBlock: cell index out of range");
  return fast() ? plane_.stored(index) : cells_[index]->stored();
}

std::uint64_t CamBlock::entry_mask(unsigned index) const {
  if (index >= cfg_.block_size) throw SimError("CamBlock: cell index out of range");
  return fast() ? plane_.mask(index) : cells_[index]->mask();
}

bool CamBlock::entry_valid(unsigned index) const {
  if (index >= cfg_.block_size) throw SimError("CamBlock: cell index out of range");
  return fast() ? plane_.valid(index) : cells_[index]->valid();
}

std::string CamBlock::match_kernel_name() const {
  return fast() ? plane_.kernel()->name : "reference";
}

bool CamBlock::entry_parity(unsigned index) const {
  if (index >= cfg_.block_size) throw SimError("CamBlock: cell index out of range");
  if (fast()) return plane_.parity(index);
  if (cfg_.parity) return parity_bit(index);
  return entry_parity_of(stored_word(index), entry_mask(index), entry_valid(index));
}

void CamBlock::poke_entry(unsigned index, Word stored, std::uint64_t entry_mask,
                          bool valid, bool parity) {
  if (index >= cfg_.block_size) throw SimError("CamBlock: cell index out of range");
  if (fast()) {
    // A poked mask may differ from the plain width mask even on a binary
    // block (that is what a MASK-plane upset looks like): an indexed plane
    // drops to the sweep until a reset re-uniforms it.
    plane_.poke(index, stored, entry_mask, valid, parity);
    return;
  }
  cells_[index]->poke_state(stored, entry_mask & kDspWordMask, valid);
  if (cfg_.parity) set_parity_bit(index, parity);
}

void CamBlock::set_fill(unsigned fill) {
  if (fill > cfg_.block_size) {
    throw SimError("CamBlock: restored fill pointer " + std::to_string(fill) +
                   " exceeds the block size " + std::to_string(cfg_.block_size));
  }
  fill_ = fill;
}

void CamBlock::flush_pipeline() {
  pd_pending_ = false;
  pending_update_.reset();
  pending_search_.reset();
  pending_reset_ = false;
  in_reg_.reset();
  tags_.clear();
  out_buf_.clear();
  response_.reset();
  ack_.reset();
}

void CamBlock::hard_reset() {
  if (fast()) {
    plane_.clear();
    pd_pending_ = false;
  } else {
    for (auto& cell : cells_) cell->hard_clear();
    reset_parity_bits();
  }
  fill_ = 0;
  pending_update_.reset();
  pending_search_.reset();
  pending_reset_ = false;
  in_reg_.reset();
  tags_.clear();
  out_buf_.clear();
  response_.reset();
  ack_.reset();
}

void CamBlock::apply_reset() {
  if (fast()) {
    // The cleared state is visible at this edge, and the tag flush below
    // guarantees no in-flight compare will be read, so the plane can be
    // rewritten directly instead of going through drive_clear/commit.
    plane_.clear();
    pd_pending_ = false;
  } else {
    for (auto& cell : cells_) cell->drive_clear();
    reset_parity_bits();
  }
  fill_ = 0;
  in_reg_.reset();
  tags_.clear();
  out_buf_.clear();
  response_.reset();
  ack_.reset();
}

void CamBlock::apply_update_path(std::optional<UpdateAck>& new_ack) {
  if (!pending_update_) return;
  const bool fast = this->fast();
  if (pending_update_->op == OpKind::kInvalidate) {
    const unsigned idx = *pending_update_->address;
    if (fast) {
      plane_.invalidate(idx);
    } else {
      cells_[idx]->drive_invalidate();
      if (cfg_.parity) {
        // Invalidate only clears the valid flag; stored word and mask persist.
        set_parity_bit(idx, entry_parity_of(stored_word(idx), entry_mask(idx), false));
      }
    }
    UpdateAck ack;
    ack.seq = pending_update_->tag.seq;
    ack.words_written = 1;
    ack.block_full = fill_ >= cfg_.block_size;
    new_ack = ack;
    return;
  }

  UpdateAck ack;
  ack.seq = pending_update_->tag.seq;
  const auto& words = pending_update_->words;
  const auto& masks = pending_update_->masks;
  const std::uint64_t default_mask = width_mask(cfg_.cell.data_width);
  if (pending_update_->address.has_value()) {
    // Addressed write: the fill pointer is untouched (entry management
    // belongs to the host).
    const std::uint32_t base = *pending_update_->address;
    for (std::size_t w = 0; w < words.size(); ++w) {
      const std::uint64_t entry_mask = masks.empty() ? default_mask : masks[w];
      if (fast) {
        plane_.write(base + w, words[w], entry_mask);
      } else if (masks.empty()) {
        cells_[base + w]->drive_write(words[w]);
      } else {
        cells_[base + w]->drive_write(words[w], masks[w]);
      }
      if (!fast && cfg_.parity) {
        set_parity_bit(base + static_cast<unsigned>(w),
                       entry_parity_of(truncate(words[w], cfg_.cell.data_width),
                                       entry_mask, true));
      }
      ++ack.words_written;
    }
  } else {
    for (std::size_t w = 0; w < words.size() && fill_ < cfg_.block_size; ++w) {
      const std::uint64_t entry_mask = masks.empty() ? default_mask : masks[w];
      if (fast) {
        plane_.write(fill_, words[w], entry_mask);
      } else if (masks.empty()) {
        cells_[fill_]->drive_write(words[w]);
      } else {
        cells_[fill_]->drive_write(words[w], masks[w]);
      }
      if (!fast && cfg_.parity) {
        set_parity_bit(fill_, entry_parity_of(truncate(words[w], cfg_.cell.data_width),
                                              entry_mask, true));
      }
      ++fill_;
      ++ack.words_written;
    }
  }
  ack.block_full = fill_ >= cfg_.block_size;
  new_ack = ack;
}

void CamBlock::gather_match_reference() {
  match_scratch_.clear_all();
  for (unsigned i = 0; i < cfg_.block_size; ++i) {
    if (cells_[i]->match()) match_scratch_.set(i);
  }
}

void CamBlock::commit() {
  // Reset clears contents and everything in flight. A search beat arriving
  // in the same cycle travelled *behind* the reset in program order (the
  // search path is one stage shorter than the update path carrying the
  // reset), so it is logically younger: it proceeds below against the
  // cleared array rather than being dropped.
  if (pending_reset_) {
    apply_reset();
    pending_update_.reset();  // same pipe as the reset: cannot coexist
    pending_reset_ = false;
  }

  const bool fast = this->fast();
  bool pd_fresh = false;

  // Parity sweep for the compare retiring at this edge (the tag about to
  // pop). Counted against *pre-edge* state - exactly the registers that
  // compare evaluated: the fast sweep below reads the same arrays, and the
  // reference PATTERNDETECT latching at this edge read pre-edge A:B/C/valid.
  // Running before apply_update_path keeps this cycle's writes out of it.
  std::uint32_t parity_errs = 0;
  if (cfg_.parity && tags_.peek_last().has_value()) {
    parity_errs = count_parity_errors();
  }

  // Search path: the broadcast register drives every cell one cycle after
  // the beat arrived. Only the masked key word reaches the cells. On the
  // fast path the compare for the key latched at the *previous* edge is
  // evaluated now, against pre-update state - the same ordering the DSP's
  // C->P register pair produces.
  if (fast) {
    if (pd_pending_) {
      // One-hot raw words land directly in the recycled pool buffer.
      std::uint64_t* oh = nullptr;
      if (cfg_.encoding == EncodingScheme::kOneHot) {
        ensure_onehot_pool();
        oh = onehot_pool_.mutable_words();
      }
      plane_.compare(cmp_key_, enc_, oh);
      pd_fresh = true;
      pd_pending_ = false;
    }
    if (in_reg_ && in_reg_->op == OpKind::kSearch) {
      cmp_key_ = in_reg_->key;
      pd_pending_ = true;
    }
  } else if (in_reg_ && in_reg_->op == OpKind::kSearch) {
    for (auto& cell : cells_) cell->drive_search(in_reg_->key);
  }

  // Update path: the DeMUX writes this beat's words straight into the cells
  // selected by the Cell Address Controller - or by the beat's explicit
  // address (extension) - combinational, latency 1. Invalidate clears one
  // cell's valid flag through the same demux.
  std::optional<UpdateAck> new_ack;
  apply_update_path(new_ack);

  // Clock edge for every cell (the fast path's edge is the array/flag
  // updates above).
  if (!fast) {
    for (auto& cell : cells_) cell->commit();
  }

  // In-flight search bookkeeping: a tag pushed at the beat's arrival pops
  // exactly when the cells' pattern-detect outputs for that key latch.
  if (pending_search_) tags_.push(pending_search_->tag);
  tags_.shift();

  std::optional<BlockResponse> encoded;
  if (tags_.output().has_value()) {
    if (fast) {
      if (!pd_fresh) {
        throw SimError("CamBlock: fast-path pipeline skew (tag popped without a compare)");
      }
      // The plane already emitted the final encoding during the sweep. A
      // one-hot response steals the pool buffer (reclaimed below from the
      // response it retires, so steady state never allocates).
      BlockResponse r;
      r.tag = *tags_.output();
      r.hit = enc_.hit;
      r.first_match = enc_.first_match;
      r.match_count = enc_.match_count;
      if (cfg_.encoding == EncodingScheme::kOneHot) {
        r.raw = std::move(onehot_pool_);
        onehot_pool_ = BitVec{};  // moved-from: make it observably empty
      }
      r.parity_errors = parity_errs;
      encoded.emplace(std::move(r));
    } else {
      gather_match_reference();
      encoded.emplace();
      encode_match_lines_into(match_scratch_, cfg_.encoding, *tags_.output(),
                              *encoded);
      encoded->parity_errors = parity_errs;
    }
  }

  // Retire last cycle's visible response, reclaiming its one-hot buffer
  // into the pool before the slot is overwritten.
  if (fast && response_ && onehot_pool_.word_count() == 0 &&
      response_->raw.size() == cfg_.block_size) {
    onehot_pool_ = std::move(response_->raw);
    response_->raw = BitVec{};
  }

  if (cfg_.output_buffer) {
    if (encoded) out_buf_.push(std::move(*encoded));
    out_buf_.shift();
    if (auto& emerged = out_buf_.mutable_output(); emerged.has_value()) {
      // Steal the emerged value (it is overwritten at the next shift
      // anyway) so a one-hot raw moves instead of copying.
      response_ = std::move(*emerged);
    } else {
      response_.reset();
    }
  } else {
    response_ = std::move(encoded);
  }

  // The ack is visible next cycle, together with the newly stored data
  // (update latency 1).
  ack_ = std::move(new_ack);

  // Latch the broadcast register for the next cycle.
  in_reg_ = std::move(pending_search_);
  pending_search_.reset();
  pending_update_.reset();
}

}  // namespace dspcam::cam
