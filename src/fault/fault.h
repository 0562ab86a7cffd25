// Fault-model vocabulary for the DSP-CAM robustness layer.
//
// The paper's CAM keeps its entire match state in DSP48E2 registers (stored
// word in A:B, per-entry MASK attribute, a valid flip-flop outside the
// slice). A single-event upset in any of those turns a search into a false
// match or a false miss - silently, because a CAM answers hit/miss rather
// than returning data that could be checksummed downstream. This header
// defines the storage view every backend exposes for fault work:
//
//   FaultTarget - a flat, entry-indexed window onto a backend's raw match
//     state. peek()/poke() bypass the clocked protocol deliberately: an SEU
//     is asynchronous to the clock, and the injector/scrubber model
//     mechanisms (radiation, background repair engines) that live outside
//     the datapath pipeline.
//
//   EntryState / FaultPlane - the four storage planes a flip can land in.
//     The parity plane only exists on parity-protected configurations
//     (BlockConfig::parity); unprotected targets report the derived parity
//     so a scrub pass classifies every corruption it finds as silent.
//
// The injector (injector.h) flips bits through this interface, the scrubber
// (scrubber.h) repairs through it, and the equivalence tests drive it
// against both simulator eval modes to prove the fault model itself is
// deterministic and mode-independent.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/cam/types.h"

namespace dspcam::fault {

/// Which storage plane of an entry a fault lands in.
enum class FaultPlane : std::uint8_t {
  kStored,  ///< The stored word (DSP A:B registers).
  kMask,    ///< The per-entry compare MASK (DSP MASK attribute).
  kValid,   ///< The valid flip-flop gating the match line.
  kParity,  ///< The parity bit itself (protected configurations only).
};

/// Raw registered state of one CAM entry, as the fault layer sees it
/// (the same record CamUnit::entry() reads).
using EntryState = cam::EntryState;

/// Even parity over an entry's protected planes: stored word, compare mask,
/// valid flag. A single flipped bit in any of them (or in the parity bit)
/// makes the recomputed parity disagree with the stored one. Canonically
/// defined next to the storage it protects (cam::entry_parity_of) so the
/// block's maintained bit and the fault layer's recomputation cannot drift.
inline bool parity_of(cam::Word stored, std::uint64_t mask, bool valid) noexcept {
  return cam::entry_parity_of(stored, mask, valid);
}

inline bool parity_of(const EntryState& s) noexcept {
  return parity_of(s.stored, s.mask, s.valid);
}

/// Flat window onto one backend's raw CAM storage for injection and scrub.
///
/// Entry indices cover the backend's *physical* storage: for the DSP unit
/// that is unit_size x block_size cells (every group's replica is separately
/// corruptible), and for the sharded engine it is the concatenation of the
/// shard windows.
class FaultTarget {
 public:
  virtual ~FaultTarget() = default;

  /// Number of individually corruptible entries.
  virtual std::size_t entry_count() const = 0;

  /// Significant bits of the stored/mask planes (flips land below this).
  virtual unsigned entry_bits() const = 0;

  /// True when the target maintains a real parity bit per entry; false means
  /// peek() derives parity (always consistent - corruption is silent).
  virtual bool parity_protected() const { return false; }

  /// Reads an entry's registered state, bypassing the clocked protocol.
  virtual EntryState peek(std::size_t entry) const = 0;

  /// Overwrites an entry's registered state, bypassing the clocked protocol.
  /// Unprotected targets ignore the parity field.
  virtual void poke(std::size_t entry, const EntryState& state) = 0;

  /// Applies one bit flip via peek/poke: an upset lands in exactly one
  /// plane and leaves every other plane - including the parity bit -
  /// untouched, which is what makes it detectable. `bit` selects the lane
  /// for the stored/mask planes and is ignored for the single-bit
  /// valid/parity planes.
  void flip(std::size_t entry, FaultPlane plane, unsigned bit);
};

}  // namespace dspcam::fault
