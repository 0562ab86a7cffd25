#include "src/cam/fast_plane.h"

#include <algorithm>
#include <bit>

#include "src/cam/mask.h"
#include "src/common/bitops.h"
#include "src/common/error.h"

namespace dspcam::cam {

void FastPlaneStore::resize(std::size_t words, bool parity_protected) {
  stored.assign(64 * words, 0);
  nmask.assign(64 * words, 0);
  valid.assign(words, 0);
  parity.assign(parity_protected ? words : 0, 0);
}

void FastPlane::bind(const BlockConfig& cfg, EncodingScheme scheme,
                     FastPlaneStore& store, std::size_t word0, std::size_t n) {
  if (n == 0 || word0 + (n + 63) / 64 > store.words()) {
    throw SimError("FastPlane: binding runs past the backing store");
  }
  if (scheme == EncodingScheme::kMatchCount) {
    throw ConfigError("FastPlane: binds priority or one-hot; a match count is "
                      "reduced from the one-hot words");
  }
  n_ = n;
  data_width_ = cfg.cell.data_width;
  scheme_ = scheme;
  stored_ = store.stored.data() + 64 * word0;
  nmask_ = store.nmask.data() + 64 * word0;
  valid_ = store.valid.data() + word0;
  parity_ = cfg.parity ? store.parity.data() + word0 : nullptr;
  // ~MASK over the DSP datapath for a never-written cell is the plain width
  // mask, i.e. "compare all data_width bits" (CamCell's initial state).
  default_nmask_ = ~width_mask(data_width_) & kDspWordMask;
  parity_init_ = entry_parity_of(0, width_mask(data_width_), false);

  // The registry lists the best sweep this host runs first. A binary plane
  // deep enough for the index answers from it while its mask plane stays
  // uniform; a TCAM or RMCAM plane always sweeps.
  kernel_ = &match_kernel_registry().front();
  index_depth_ok_ = cfg.cell.kind == CamKind::kBinary && n >= kIndexMinDepth;
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
  if (valid(i)) unlink(i);
  stored_[i] = truncate(value, data_width_);
  nmask_[i] = ~mask & kDspWordMask;
  note_mask(i);
  valid_[i / 64] |= std::uint64_t{1} << (i % 64);
  link(i);
  if (parity_ != nullptr) set_parity(i, entry_parity_of(stored_[i], mask, true));
}

void FastPlane::invalidate(std::size_t i) {
  if (valid(i)) unlink(i);
  valid_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  if (parity_ != nullptr) set_parity(i, entry_parity_of(stored_[i], mask(i), false));
}

void FastPlane::poke(std::size_t i, Word stored, std::uint64_t mask, bool valid,
                     bool parity) {
  if (this->valid(i)) unlink(i);
  stored_[i] = truncate(stored, data_width_);
  nmask_[i] = ~(mask & kDspWordMask) & kDspWordMask;
  // Sticky by design: a later poke restoring this entry says nothing about
  // the others, so only clear() re-uniforms the plane.
  note_mask(i);
  const std::uint64_t lane = std::uint64_t{1} << (i % 64);
  if (valid) {
    valid_[i / 64] |= lane;
    link(i);
  } else {
    valid_[i / 64] &= ~lane;
  }
  if (parity_ != nullptr) set_parity(i, parity);
}

void FastPlane::clear() {
  index_stale_ = true;
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
  // One pattern-detect edge: entry i latches
  //   PATTERNDETECT = ((stored_i ^ key) & ~MASK_i & kDspWordMask) == 0
  // gated by its valid flag, all against the pre-edge arrays.
  key = truncate(key, data_width_);
  if (indexed()) {
    if (index_stale_) rebuild_index();
    lookup(key, out, onehot);
    return;
  }
  // The kernel is a pure integer transform, so the ISA it runs on never
  // leaks into results.
  kernel_->encode_fn(stored_, nmask_, valid_, key, n_, scheme_, out, onehot);
}

// With every mask the plain width mask, PATTERNDETECT reduces to
// stored_i == key, so the plane is an exact-match map from stored word to
// the valid addresses holding it. One pass rebuilds it: walking the valid
// flags downward while pushing each address onto its chain's front leaves
// every chain in ascending address order. The table has twice as many
// slots as the plane has entries, so it is at most half full.
void FastPlane::rebuild_index() {
  const std::size_t buckets = std::bit_ceil(std::max<std::size_t>(2 * n_, 16));
  if (next_.size() < n_) {
    // First use at this depth; no later rebuild (and no regrouping back to
    // this depth) allocates.
    next_.resize(n_);
    heads_.resize(buckets);
  }
  index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  std::fill_n(heads_.begin(), buckets, kNoEntry);
  for (std::size_t wi = words(); wi-- > 0;) {
    for (std::uint64_t m = valid_[wi]; m != 0;) {
      const unsigned b = 63 - static_cast<unsigned>(std::countl_zero(m));
      m &= ~(std::uint64_t{1} << b);
      const auto i = static_cast<std::uint32_t>(wi * 64 + b);
      std::uint32_t& head = heads_[slot(stored_[i])];
      next_[i] = head;
      head = i;
    }
  }
  index_stale_ = false;
}

std::size_t FastPlane::slot(Word key) const noexcept {
  const std::size_t mask = (std::size_t{1} << (64 - index_shift_)) - 1;
  std::size_t h = home(key);
  while (heads_[h] != kNoEntry && stored_[heads_[h]] != key) h = (h + 1) & mask;
  return h;
}

// Inserts valid address i into its word's chain, keeping it ascending.
void FastPlane::link(std::size_t i) {
  if (index_stale_) return;
  const auto a = static_cast<std::uint32_t>(i);
  std::uint32_t* at = &heads_[slot(stored_[i])];
  while (*at != kNoEntry && *at < a) at = &next_[*at];
  next_[i] = *at;
  *at = a;
}

// Removes valid address i from its word's chain; an emptied chain's slot is
// freed by backward-shift deletion, so probe runs stay unbroken.
void FastPlane::unlink(std::size_t i) {
  if (index_stale_) return;
  std::size_t h = slot(stored_[i]);
  std::uint32_t* at = &heads_[h];
  while (*at != static_cast<std::uint32_t>(i)) at = &next_[*at];
  *at = next_[i];
  if (heads_[h] != kNoEntry) return;
  const std::size_t mask = (std::size_t{1} << (64 - index_shift_)) - 1;
  for (std::size_t j = (h + 1) & mask; heads_[j] != kNoEntry; j = (j + 1) & mask) {
    // Slot j's chain may fill the hole unless its home lies in (h, j].
    if (((j - home(stored_[heads_[j]])) & mask) >= ((j - h) & mask)) {
      heads_[h] = heads_[j];
      heads_[j] = kNoEntry;
      h = j;
    }
  }
}

// The kernel's output for `key`, read off its chain: priority is the head,
// one-hot one bit per chain entry.
void FastPlane::lookup(Word key, EncodedMatch& out, std::uint64_t* onehot) const {
  const std::uint32_t head = heads_[slot(key)];
  out = EncodedMatch{};
  out.hit = head != kNoEntry;
  if (scheme_ == EncodingScheme::kPriorityIndex) {
    if (out.hit) out.first_match = head;
    return;
  }
  std::fill_n(onehot, words(), 0);
  for (std::uint32_t i = head; i != kNoEntry; i = next_[i]) {
    onehot[i / 64] |= std::uint64_t{1} << (i % 64);
  }
}

}  // namespace dspcam::cam
