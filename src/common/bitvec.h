// Dynamic fixed-size bit vector.
//
// Models hardware match-line buses: a CAM block with 512 cells produces a
// 512-bit match vector per search. std::bitset is compile-time sized and
// std::vector<bool> lacks word-level access, so this small type provides a
// runtime-sized bit vector with the operations encoders need: set/test,
// population count, and first-set-bit scan.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/error.h"

namespace dspcam {

/// Runtime-sized bit vector with word-level storage.
class BitVec {
 public:
  BitVec() = default;

  /// Creates a vector of `size` bits, all clear.
  explicit BitVec(std::size_t size) : size_(size), words_((size + 63) / 64, 0) {}

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool test(std::size_t i) const {
    check(i);
    return (words_[i / 64] >> (i % 64)) & 1;
  }

  void set(std::size_t i, bool value = true) {
    check(i);
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if (value) {
      words_[i / 64] |= bit;
    } else {
      words_[i / 64] &= ~bit;
    }
  }

  void clear_all() noexcept {
    for (auto& w : words_) w = 0;
  }

  /// Number of set bits.
  std::size_t count() const noexcept {
    std::size_t n = 0;
    for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  bool any() const noexcept {
    for (auto w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Index of the lowest set bit, or size() if none (a priority encoder).
  std::size_t find_first() const noexcept {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      if (words_[wi] != 0) {
        return wi * 64 + static_cast<std::size_t>(std::countr_zero(words_[wi]));
      }
    }
    return size_;
  }

  /// Raw word storage (little-endian bit order), for tests and dumps.
  const std::vector<std::uint64_t>& words() const noexcept { return words_; }

  /// Writes one whole 64-bit word of the vector at once (a match kernel
  /// filling 64 match lines per step). Bits above size() in the top word
  /// are forced clear so count()/any()/find_first() stay correct.
  void set_word(std::size_t wi, std::uint64_t value) {
    if (wi >= words_.size()) throw SimError("BitVec: word index out of range");
    const std::size_t top_bits = size_ - wi * 64;
    if (top_bits < 64) value &= (std::uint64_t{1} << top_bits) - 1;
    words_[wi] = value;
  }

  /// Number of 64-bit storage words.
  std::size_t word_count() const noexcept { return words_.size(); }

  bool operator==(const BitVec&) const = default;

 private:
  void check(std::size_t i) const {
    if (i >= size_) throw SimError("BitVec: index out of range");
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace dspcam
