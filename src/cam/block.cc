#include "src/cam/block.h"

#include <algorithm>
#include <string>

#include "src/common/bitops.h"
#include "src/common/error.h"

namespace dspcam::cam {

CamBlock::CamBlock(const BlockConfig& cfg) : cfg_(cfg), tags_(2), out_buf_(1) {
  cfg_.validate();
  cells_.reserve(cfg_.block_size);
  for (unsigned i = 0; i < cfg_.block_size; ++i) {
    cells_.push_back(std::make_unique<CamCell>(cfg_.cell));
  }
  match_scratch_ = BitVec(cfg_.block_size);
  if (cfg_.parity) {
    parity_.assign((cfg_.block_size + 63) / 64, 0);
    reset_parity_bits();
  }
}

void CamBlock::reset_parity_bits() {
  if (parity_.empty()) return;
  // A never-written entry is (stored=0, mask=width_mask, valid=false), so
  // its parity is popcount(width_mask) & 1.
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
  if (index >= cfg_.block_size) throw SimError("CamBlock: cell index out of range");
  return *cells_[index];
}

Word CamBlock::stored_word(unsigned index) const { return cell(index).stored(); }

std::uint64_t CamBlock::entry_mask(unsigned index) const { return cell(index).mask(); }

bool CamBlock::entry_valid(unsigned index) const { return cell(index).valid(); }

bool CamBlock::entry_parity(unsigned index) const {
  if (index >= cfg_.block_size) throw SimError("CamBlock: cell index out of range");
  if (cfg_.parity) return parity_bit(index);
  return entry_parity_of(stored_word(index), entry_mask(index), entry_valid(index));
}

void CamBlock::poke_entry(unsigned index, Word stored, std::uint64_t entry_mask,
                          bool valid, bool parity) {
  if (index >= cfg_.block_size) throw SimError("CamBlock: cell index out of range");
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
  for (auto& cell : cells_) cell->hard_clear();
  reset_parity_bits();
  fill_ = 0;
  flush_pipeline();
}

void CamBlock::apply_reset() {
  for (auto& cell : cells_) cell->drive_clear();
  reset_parity_bits();
  fill_ = 0;
  in_reg_.reset();
  tags_.clear();
  out_buf_.clear();
  response_.reset();
  ack_.reset();
}

void CamBlock::apply_update_path(std::optional<UpdateAck>& new_ack) {
  if (!pending_update_) return;
  if (pending_update_->op == OpKind::kInvalidate) {
    const unsigned idx = *pending_update_->address;
    cells_[idx]->drive_invalidate();
    if (cfg_.parity) {
      // Invalidate only clears the valid flag; stored word and mask persist.
      set_parity_bit(idx, entry_parity_of(stored_word(idx), entry_mask(idx), false));
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
  // Addressed writes leave the fill pointer untouched (entry management
  // belongs to the host); appends advance it and stop at the last cell.
  const bool addressed = pending_update_->address.has_value();
  unsigned target = addressed ? *pending_update_->address : fill_;
  for (std::size_t w = 0; w < words.size() && target < cfg_.block_size; ++w, ++target) {
    if (masks.empty()) {
      cells_[target]->drive_write(words[w]);
    } else {
      cells_[target]->drive_write(words[w], masks[w]);
    }
    if (cfg_.parity) {
      const std::uint64_t entry_mask = masks.empty() ? default_mask : masks[w];
      set_parity_bit(target, entry_parity_of(truncate(words[w], cfg_.cell.data_width),
                                             entry_mask, true));
    }
    ++ack.words_written;
  }
  if (!addressed) fill_ = target;
  ack.block_full = fill_ >= cfg_.block_size;
  new_ack = ack;
}

void CamBlock::gather_match_lines() {
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

  // Parity sweep for the compare retiring at this edge (the tag about to
  // pop). Counted against *pre-edge* state - exactly the registers that
  // compare evaluated: PATTERNDETECT latching at this edge read pre-edge
  // A:B/C/valid. Running before apply_update_path keeps this cycle's writes
  // out of it.
  std::uint32_t parity_errs = 0;
  if (cfg_.parity && tags_.peek_last().has_value()) {
    parity_errs = count_parity_errors();
  }

  // Search path: the broadcast register drives every cell one cycle after
  // the beat arrived. Only the masked key word reaches the cells.
  if (in_reg_ && in_reg_->op == OpKind::kSearch) {
    for (auto& cell : cells_) cell->drive_search(in_reg_->key);
  }

  // Update path: the DeMUX writes this beat's words straight into the cells
  // selected by the Cell Address Controller - or by the beat's explicit
  // address (extension) - combinational, latency 1. Invalidate clears one
  // cell's valid flag through the same demux.
  std::optional<UpdateAck> new_ack;
  apply_update_path(new_ack);

  // Clock edge for every cell.
  for (auto& cell : cells_) cell->commit();

  // In-flight search bookkeeping: a tag pushed at the beat's arrival pops
  // exactly when the cells' pattern-detect outputs for that key latch.
  if (pending_search_) tags_.push(pending_search_->tag);
  tags_.shift();

  std::optional<BlockResponse> encoded;
  if (tags_.output().has_value()) {
    gather_match_lines();
    encoded.emplace();
    encode_match_lines_into(match_scratch_, cfg_.encoding, *tags_.output(), *encoded);
    encoded->parity_errors = parity_errs;
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
