// Growable circular FIFO that stops allocating once warm.
//
// std::deque allocates a fresh chunk every few push_back()s and frees the
// drained one on pop_front(), so a queue that merely cycles at a steady
// depth keeps hitting the heap. RingQueue stores its elements in one
// power-of-two slot array that doubles when full and never shrinks: after
// the queue has reached its high-water depth, push/pop are allocation-free
// (elements' own heap buffers aside). Random access is relative to the
// front, which is what reorder buffers index by.
//
// Popped and cleared slots are reset to T{}, so a queued element's
// resources are released when it leaves the queue, as with std::deque.
// T must be default-constructible and move-assignable.
#pragma once

#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

namespace dspcam {

template <typename T>
class RingQueue {
  template <typename Q, typename V>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = V*;
    using reference = V&;

    Iter(Q* q, std::size_t i) : q_(q), i_(i) {}
    V& operator*() const { return (*q_)[i_]; }
    V* operator->() const { return &(*q_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }
    bool operator!=(const Iter& o) const { return i_ != o.i_; }

   private:
    Q* q_;
    std::size_t i_;
  };

 public:
  using iterator = Iter<RingQueue, T>;
  using const_iterator = Iter<const RingQueue, const T>;

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// Element `i` counted from the front (unchecked).
  T& operator[](std::size_t i) { return slots_[(head_ + i) & (slots_.size() - 1)]; }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  /// Bounds-checked operator[]; throws std::out_of_range.
  T& at(std::size_t i) {
    if (i >= size_) throw std::out_of_range("RingQueue::at");
    return (*this)[i];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T value) { emplace_back() = std::move(value); }

  /// Appends an element and returns it; it is T{}, as every free slot is.
  T& emplace_back() {
    if (size_ == slots_.size()) grow();
    return (*this)[size_++];
  }

  /// Drops the front element (its slot is reset to T{}).
  void pop_front() {
    front() = T{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  /// Drops every element; the slot array is kept.
  void clear() {
    while (!empty()) pop_front();
  }

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, size_}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  ///< Power-of-two size (or empty).
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dspcam
