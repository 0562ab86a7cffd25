// Packed match plane: the EvalMode::kFast storage and compare engine.
//
// A FastPlane mirrors the registered state of `n` CAM entries - stored
// word, ~MASK, valid flag and (on parity-protected geometries) the parity
// bit - in packed contiguous arrays, and answers a search key with one
// fused sweep→encode kernel call over all of them (match_kernel.h), or -
// on a deep mask-uniform binary plane - with one exact-match index lookup.
// It owns everything the fast path needs per compare domain:
//
//   - the packed arrays (a view into a FastPlaneStore the owner sizes);
//   - mask-plane uniformity tracking (nmask_uniform_), which only the index
//     needs: the sweep is the full masked formula;
//   - the exact-match index (DESIGN.md §11): stored word -> the valid
//     addresses holding it, kept in step with every mutation.
//
// Its owner is CamUnit in EvalMode::kFast (DESIGN.md §15): one plane per
// CAM group, each covering every block of the group laid out in ascending
// physical id and starting on a 64-entry word boundary of one unit-wide
// store, so a key costs one kernel call per group instead of one per block.
//
// The plane has no notion of time: the owner calls compare() at the edge the
// DSP pattern-detect register would latch, against pre-edge state, and
// mutate afterwards. The index is a pure function of the arrays: writes,
// invalidates and pokes update it in place, and after a clear() the next
// compare rebuilds it in one pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/cam/config.h"
#include "src/cam/match_kernel.h"
#include "src/cam/types.h"
#include "src/common/bitops.h"

namespace dspcam::cam {

/// Backing arrays shared by the planes bound into them, in units of 64-entry
/// words (plane words never straddle planes).
struct FastPlaneStore {
  std::vector<std::uint64_t> stored;   ///< 64 entries per word.
  std::vector<std::uint64_t> nmask;    ///< ~MASK, 64 entries per word.
  std::vector<std::uint64_t> valid;    ///< Packed flags, one word per word.
  std::vector<std::uint64_t> parity;   ///< Packed bits; empty when unprotected.

  /// Sizes every array for `words` plane words (allocates once).
  void resize(std::size_t words, bool parity_protected);
  std::size_t words() const noexcept { return valid.size(); }
};

/// One packed match plane over `n` entries.
class FastPlane {
 public:
  /// Shallowest plane the exact-match index serves (DESIGN.md §11): the
  /// first depth where a lookup costs under 60% of the sweep.
  static constexpr std::size_t kIndexMinDepth = 128;

  /// Binds the plane to entries [64 * word0, 64 * word0 + n) of `store`,
  /// decides whether its kind and depth earn the index, and resets the
  /// entries to their power-on state (stored 0, plain width mask, invalid).
  /// `scheme` is the encoding compare() produces. Allocates nothing once
  /// `store` is sized; the index sizes its own table at the first compare
  /// that needs it.
  void bind(const BlockConfig& cfg, EncodingScheme scheme, FastPlaneStore& store,
            std::size_t word0, std::size_t n);

  std::size_t size() const noexcept { return n_; }
  std::size_t words() const noexcept { return (n_ + 63) / 64; }

  /// The sweep kernel: the registry's first entry (match_kernel.h).
  const MatchKernel* kernel() const noexcept { return kernel_; }

  /// True while every entry's compare mask is the plain width mask (the
  /// precondition of the exact-match index); writes with per-entry masks
  /// and pokes clear it, clear() restores it.
  bool mask_uniform() const noexcept { return nmask_uniform_; }

  /// True when compare() answers from the exact-match index: the plane is
  /// binary, at least kIndexMinDepth deep, and its mask plane is still
  /// uniform.
  bool indexed() const noexcept { return index_depth_ok_ && nmask_uniform_; }

  // --- Entry state (index < size(); unchecked). ---
  Word stored(std::size_t i) const noexcept { return stored_[i]; }
  std::uint64_t mask(std::size_t i) const noexcept { return ~nmask_[i] & kDspWordMask; }
  bool valid(std::size_t i) const noexcept { return ((valid_[i / 64] >> (i % 64)) & 1) != 0; }
  /// The maintained parity bit when protected, the derived value otherwise.
  bool parity(std::size_t i) const noexcept;

  // --- Mutations (each keeps a fresh index in step; clear() stales it). ---

  /// Clocked write: stores `value` (truncated) with compare mask `mask`,
  /// sets valid, recomputes parity. Throws ConfigError for a mask wider
  /// than the DSP datapath, as Dsp48e2::set_pattern_mask does.
  void write(std::size_t i, Word value, std::uint64_t mask);
  /// Clocked invalidate: clears the valid flag; word and mask persist.
  void invalidate(std::size_t i);
  /// Out-of-protocol overwrite (fault injection / scrub): parity is written
  /// verbatim, never recomputed.
  void poke(std::size_t i, Word stored, std::uint64_t mask, bool valid, bool parity);
  /// Every entry back to power-on state; mask plane uniform again (which
  /// re-arms the index on an eligible plane).
  void clear();

  /// Entries whose parity bit disagrees with their state (0 if unprotected).
  std::uint32_t parity_errors() const;

  // --- Compare. ---

  /// One pattern-detect sweep for `key` (truncated to the data width):
  /// fills `out` under the bound scheme and, for kOneHot, writes words()
  /// valid-ANDed match words to `onehot`. An indexed plane answers from the
  /// index instead (rebuilding it first if clear() or a demotion left it
  /// stale), with exactly the kernel's output.
  void compare(Word key, EncodedMatch& out, std::uint64_t* onehot);

 private:
  static constexpr std::uint32_t kNoEntry = ~std::uint32_t{0};

  void set_parity(std::size_t i, bool value) noexcept;
  /// A non-plain mask demotes the plane to the sweep (and the index stops
  /// following mutations until clear() and a rebuild).
  void note_mask(std::size_t i) noexcept {
    if (nmask_[i] != default_nmask_) {
      nmask_uniform_ = false;
      index_stale_ = true;
    }
  }
  void rebuild_index();
  /// Fibonacci hashing: the top bits of key * 2^64/phi pick the home slot.
  std::size_t home(Word key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> index_shift_);
  }
  /// The table slot holding `key`'s chain head, or the empty slot where it
  /// would go (the table is at most half full, so one always exists).
  std::size_t slot(Word key) const noexcept;
  /// Keep a fresh index in step with one entry (no-ops while stale).
  void link(std::size_t i);
  void unlink(std::size_t i);
  void lookup(Word key, EncodedMatch& out, std::uint64_t* onehot) const;

  std::size_t n_ = 0;
  unsigned data_width_ = 32;
  EncodingScheme scheme_ = EncodingScheme::kPriorityIndex;

  std::uint64_t* stored_ = nullptr;
  std::uint64_t* nmask_ = nullptr;
  std::uint64_t* valid_ = nullptr;
  std::uint64_t* parity_ = nullptr;  ///< nullptr when unprotected.

  const MatchKernel* kernel_ = nullptr;
  std::uint64_t default_nmask_ = 0;  ///< ~width_mask: the uniform-plane value.
  bool parity_init_ = false;         ///< Parity of a power-on entry.
  bool nmask_uniform_ = true;

  // Exact-match index: an open-addressed, linearly probed table of chain
  // heads keyed by stored word (the head's own stored_ entry is the key),
  // and one next_ link per address. Chains hold only valid addresses, in
  // ascending order. Fresh, it follows every write, invalidate and poke in
  // place; clear() and demotion leave it stale until the next compare of an
  // indexed plane rebuilds it.
  bool index_depth_ok_ = false;  ///< Binary plane and n >= kIndexMinDepth.
  bool index_stale_ = true;
  unsigned index_shift_ = 64;    ///< 64 - log2(table slots in use).
  std::vector<std::uint32_t> heads_;  ///< Sized at the first rebuild.
  std::vector<std::uint32_t> next_;
};

}  // namespace dspcam::cam
