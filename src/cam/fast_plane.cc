#include "src/cam/fast_plane.h"

#include <algorithm>

#include "src/cam/mask.h"
#include "src/common/bitops.h"
#include "src/common/error.h"

namespace dspcam::cam {

void FastPlaneStore::resize(std::size_t words, bool parity_protected) {
  stored.assign(64 * words, 0);
  nmask.assign(64 * words, 0);
  valid.assign(words, 0);
  parity.assign(parity_protected ? words : 0, 0);
  ring.assign(FastPlane::kRingRecords * words, 0);
  scratch.assign(kMaxFusionKeys * words, 0);
}

void FastPlane::bind(const BlockConfig& cfg, EncodingScheme scheme,
                     FastPlaneStore& store, std::size_t word0, std::size_t n,
                     unsigned blocks) {
  if (n == 0 || word0 + (n + 63) / 64 > store.words()) {
    throw SimError("FastPlane: binding runs past the backing store");
  }
  drop_staged();  // counted at the old weight
  n_ = n;
  data_width_ = cfg.cell.data_width;
  scheme_ = scheme;
  blocks_ = blocks;
  stored_ = store.stored.data() + 64 * word0;
  nmask_ = store.nmask.data() + 64 * word0;
  valid_ = store.valid.data() + word0;
  parity_ = cfg.parity ? store.parity.data() + word0 : nullptr;
  scratch_ = store.scratch.data();
  // ~MASK over the DSP datapath for a never-written cell is the plain width
  // mask, i.e. "compare all data_width bits" (CamCell's initial state).
  default_nmask_ = ~width_mask(data_width_) & kDspWordMask;
  parity_init_ = entry_parity_of(0, width_mask(data_width_), false);

  // Configure-time kernel selection at this plane's depth, plus the masked
  // fallback dispatched if a poke or per-entry mask de-uniforms a binary
  // plane's mask plane.
  MatchKernelQuery q;
  q.kind = cfg.cell.kind;
  q.data_width = data_width_;
  q.block_size = static_cast<unsigned>(n);
  q.force_generic = cfg.force_generic_kernel;
  kernel_ = &select_match_kernel(q);
  if (kernel_->needs_uniform_mask) {
    q.allow_mask_free = false;
    masked_kernel_ = &select_match_kernel(q);
  } else {
    masked_kernel_ = kernel_;
  }
  for (const MatchKernel* k : {kernel_, masked_kernel_}) {
    if (k->encode_fn == nullptr || k->multi_encode_fn == nullptr) {
      throw SimError(std::string("FastPlane: kernel ") + k->name +
                     " lacks the fused encode entry points");
    }
  }
  ring_.configure(words(), kRingRecords,
                  store.ring.data() + kRingRecords * word0);
  clear();
}

bool FastPlane::parity(std::size_t i) const noexcept {
  if (parity_ != nullptr) return ((parity_[i / 64] >> (i % 64)) & 1) != 0;
  return entry_parity_of(stored(i), mask(i), valid(i));
}

void FastPlane::set_parity(std::size_t i, bool value) noexcept {
  const std::uint64_t lane = std::uint64_t{1} << (i % 64);
  if (value) {
    parity_[i / 64] |= lane;
  } else {
    parity_[i / 64] &= ~lane;
  }
}

void FastPlane::write(std::size_t i, Word value, std::uint64_t mask) {
  // Same legality check Dsp48e2::set_pattern_mask applies on the reference
  // path.
  if (mask > kDspWordMask) {
    throw ConfigError("DSP48E2: PATTERN/MASK attributes exceed 48 bits");
  }
  drop_staged();
  stored_[i] = truncate(value, data_width_);
  nmask_[i] = ~mask & kDspWordMask;
  note_mask(i);
  valid_[i / 64] |= std::uint64_t{1} << (i % 64);
  if (parity_ != nullptr) set_parity(i, entry_parity_of(stored_[i], mask, true));
}

void FastPlane::invalidate(std::size_t i) {
  drop_staged();
  valid_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  if (parity_ != nullptr) set_parity(i, entry_parity_of(stored_[i], mask(i), false));
}

void FastPlane::poke(std::size_t i, Word stored, std::uint64_t mask, bool valid,
                     bool parity) {
  drop_staged();
  stored_[i] = truncate(stored, data_width_);
  nmask_[i] = ~(mask & kDspWordMask) & kDspWordMask;
  // Sticky by design: a later poke restoring this entry says nothing about
  // the others, so only clear() re-uniforms the plane.
  note_mask(i);
  const std::uint64_t lane = std::uint64_t{1} << (i % 64);
  if (valid) {
    valid_[i / 64] |= lane;
  } else {
    valid_[i / 64] &= ~lane;
  }
  if (parity_ != nullptr) set_parity(i, parity);
}

void FastPlane::clear() {
  drop_staged();
  std::fill(stored_, stored_ + n_, 0);
  std::fill(nmask_, nmask_ + n_, default_nmask_);
  std::fill(valid_, valid_ + words(), 0);
  if (parity_ != nullptr) {
    std::fill(parity_, parity_ + words(), parity_init_ ? ~std::uint64_t{0} : 0);
  }
  nmask_uniform_ = true;
}

std::uint32_t FastPlane::parity_errors() const {
  if (parity_ == nullptr) return 0;
  std::uint32_t errors = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (entry_parity_of(stored(i), mask(i), valid(i)) != parity(i)) ++errors;
  }
  return errors;
}

void FastPlane::compare(Word key, EncodedMatch& out, std::uint64_t* onehot) {
  // One pattern-detect sweep: entry i latches
  //   PATTERNDETECT = ((stored_i ^ key) & ~MASK_i & kDspWordMask) == 0
  // gated by its valid flag, all against the pre-edge arrays.
  key = truncate(key, data_width_);
  // Fused fast path: the oldest staged record stands in for the sweep when
  // it was staged for exactly this key. It was computed by the same kernel
  // over the same arrays (any mutation clears the ring), so the
  // substitution is bit-exact. A key mismatch means the scan staged ahead
  // of compares already in flight: sweep fresh without popping, and the
  // ring realigns as those compares retire.
  if (!ring_.empty() && ring_.front_key() == key) {
    out = ring_.front_meta();
    if (scheme_ == EncodingScheme::kOneHot) {
      std::copy_n(ring_.front_words(), words(), onehot);
    }
    ring_.pop_front();
    hits_ += blocks_;
    return;
  }
  // Dispatch: the kernel selected at bind time, demoted to the masked
  // fallback while the mask plane is non-uniform. Every kernel is a pure
  // integer transform, so the choice never leaks into results.
  dispatch()->encode_fn(stored_, nmask_, valid_, key, n_, scheme_, out, onehot);
}

void FastPlane::stage(const Word* keys, std::size_t nkeys) {
  if (nkeys == 0) return;
  if (nkeys > kMaxFusionKeys || !ring_.can_stage(nkeys)) {
    throw SimError("FastPlane: fused batch exceeds staging capacity");
  }
  // Truncate exactly as the broadcast-register latch would, so records are
  // keyed by the value compare() will look up.
  Word tk[kMaxFusionKeys];
  for (std::size_t i = 0; i < nkeys; ++i) tk[i] = truncate(keys[i], data_width_);
  const MatchKernel* k = dispatch();
  // The ring's records are key-major exactly like the kernel's output, so a
  // batch that fits without wrapping lands straight in the staged slots;
  // only a wrapping batch bounces through the scratch.
  if (std::uint64_t* span = ring_.stage_span(tk, nkeys)) {
    k->multi_encode_fn(stored_, nmask_, valid_, tk, nkeys, n_, scheme_, metas_, span);
  } else {
    k->multi_encode_fn(stored_, nmask_, valid_, tk, nkeys, n_, scheme_, metas_,
                       scratch_);
    const std::size_t w = words();
    for (std::size_t i = 0; i < nkeys; ++i) {
      std::copy_n(scratch_ + i * w, w, ring_.stage(tk[i]));
    }
  }
  for (std::size_t i = 0; i < nkeys; ++i) {
    ring_.meta_from_back(nkeys - 1 - i) = metas_[i];
  }
  staged_ += nkeys * blocks_;
}

}  // namespace dspcam::cam
