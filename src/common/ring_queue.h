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
// Only live slots hold objects: a push constructs its element in place and
// a pop or clear destroys it, so an element's resources are released when
// it leaves the queue, as with std::deque, and slots never used are never
// touched - a queue of wide records (a bus beat's inline payload) pays for
// the depth it reaches, not for zero-filling or default-constructing its
// whole slot array. T must be move-constructible; emplace_back() with no
// arguments also needs it default-constructible.
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

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

  RingQueue() = default;
  RingQueue(RingQueue&& o) noexcept { take(o); }
  RingQueue& operator=(RingQueue&& o) noexcept {
    if (this != &o) {
      release();
      take(o);
    }
    return *this;
  }
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;
  ~RingQueue() { release(); }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// Element `i` counted from the front (unchecked).
  T& operator[](std::size_t i) { return slots_[(head_ + i) & (capacity_ - 1)]; }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & (capacity_ - 1)];
  }

  /// Bounds-checked operator[]; throws std::out_of_range.
  T& at(std::size_t i) {
    if (i >= size_) throw std::out_of_range("RingQueue::at");
    return (*this)[i];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T&& value) {
    if (size_ == capacity_) {
      T moved(std::move(value));  // `value` may be an element grow() relocates
      grow();
      return push_back(std::move(moved));
    }
    ::new (static_cast<void*>(back_slot())) T(std::move(value));
    ++size_;
  }
  void push_back(const T& value) {
    if (size_ == capacity_) return push_back(T(value));
    ::new (static_cast<void*>(back_slot())) T(value);
    ++size_;
  }

  /// Appends an element constructed in place from `args` and returns it.
  /// With no arguments it is default-initialised (T{} for trivially
  /// copyable T, else whatever T's default member initialisers set).
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if constexpr (sizeof...(Args) != 0) {
      if (size_ == capacity_) {
        T made(std::forward<Args>(args)...);  // `args` may be elements grow() relocates
        grow();
        return emplace_back(std::move(made));
      }
    } else if (size_ == capacity_) {
      grow();
    }
    T* slot = back_slot();
    if constexpr (sizeof...(Args) != 0) {
      ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    } else if constexpr (std::is_trivially_copyable_v<T>) {
      ::new (static_cast<void*>(slot)) T{};
    } else {
      ::new (static_cast<void*>(slot)) T;
    }
    ++size_;
    return *slot;
  }

  /// Drops (destroys) the front element.
  void pop_front() {
    std::destroy_at(&front());
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  /// Drops (destroys) the back element.
  void pop_back() {
    std::destroy_at(&(*this)[size_ - 1]);
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
  /// The free slot behind the back element (the array must not be full).
  T* back_slot() { return &slots_[(head_ + size_) & (capacity_ - 1)]; }

  void grow() {
    const std::size_t n = capacity_ == 0 ? 8 : capacity_ * 2;
    T* bigger = std::allocator<T>().allocate(n);
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(bigger + i)) T(std::move((*this)[i]));
      std::destroy_at(&(*this)[i]);
    }
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = bigger;
    capacity_ = n;
    head_ = 0;
  }

  void release() noexcept {
    clear();
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = nullptr;
    capacity_ = 0;
    head_ = 0;
  }

  void take(RingQueue& o) noexcept {
    slots_ = std::exchange(o.slots_, nullptr);
    capacity_ = std::exchange(o.capacity_, 0);
    head_ = std::exchange(o.head_, 0);
    size_ = std::exchange(o.size_, 0);
  }

  T* slots_ = nullptr;  ///< capacity_ slots (a power of two, or none); live
                        ///< ones are [head_, head_ + size_) mod capacity_.
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dspcam
