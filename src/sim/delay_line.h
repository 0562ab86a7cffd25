// Fixed-latency pipeline register chain.
//
// A DelayLine<T> models a chain of N pipeline registers with initiation
// interval 1: a value pushed in cycle c emerges in cycle c+N. Empty stages
// carry std::nullopt (a pipeline bubble). This is the workhorse used to give
// the CAM cell, block, and unit their exact register-stage latencies.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "src/common/error.h"

namespace dspcam::sim {

/// N-stage pipeline register chain with two-phase semantics.
///
/// Usage per cycle: call push() (or push_bubble()) during the eval phase,
/// read output() during eval of *downstream* logic (it reflects the value
/// that left the final register at the last commit), and let the owning
/// component call shift() from its commit().
template <typename T>
class DelayLine {
 public:
  /// Creates a chain of `stages` registers; stages must be >= 1.
  explicit DelayLine(unsigned stages) : stages_(stages), regs_(stages) {
    if (stages == 0) throw SimError("DelayLine: stages must be >= 1");
  }

  /// Number of register stages (the latency in cycles).
  unsigned stages() const noexcept { return stages_; }

  /// Stages the next input value. At most one push per cycle.
  void push(T value) {
    if (next_.has_value()) throw SimError("DelayLine: double push in one cycle");
    next_ = std::move(value);
  }

  /// Explicitly stages a bubble (equivalent to not pushing at all).
  void push_bubble() noexcept {}

  /// The value that emerged from the final register at the last commit,
  /// or nullopt if a bubble emerged.
  const std::optional<T>& output() const noexcept { return output_; }

  /// Mutable access to the output register, so a consumer that fully owns
  /// this line can steal the emerged value's heap buffers for reuse instead
  /// of copying (the value is overwritten at the next shift() anyway).
  std::optional<T>& mutable_output() noexcept { return output_; }

  /// The value sitting in the final register now - i.e. what the *coming*
  /// shift() will move into output(). Lets commit-phase logic that runs
  /// before its own shift() ask "is something about to emerge this edge?".
  const std::optional<T>& peek_last() const noexcept { return regs_[last_]; }

  /// Commit phase: advance every register by one stage. The registers form
  /// a ring, so this moves the final register out, refills its slot with
  /// the staged input (now the first stage) and rotates the ring: O(1) in
  /// the stage count.
  void shift() {
    output_ = std::move(regs_[last_]);
    regs_[last_] = std::move(next_);
    next_.reset();
    if (++last_ == regs_.size()) last_ = 0;
  }

  /// Clears all stages and the output (models a synchronous reset).
  void clear() {
    for (auto& r : regs_) r.reset();
    next_.reset();
    output_.reset();
  }

  /// True if every stage, the pending input and the output are bubbles.
  bool drained() const noexcept {
    if (next_.has_value() || output_.has_value()) return false;
    for (const auto& r : regs_) {
      if (r.has_value()) return false;
    }
    return true;
  }

 private:
  unsigned stages_;
  /// Ring of register stages: regs_[last_] is the final register and each
  /// slot after it (mod N) is one stage nearer the input, so the slot
  /// before it is the first stage.
  std::vector<std::optional<T>> regs_;
  std::size_t last_ = 0;
  std::optional<T> next_;
  std::optional<T> output_;
};

}  // namespace dspcam::sim
