// Small-buffer vector for fixed-width bus payloads.
//
// A unit bus beat is a fixed-width record: at 512 bits it carries at most
// 16 32-bit words, or one search key per CAM group (paper Fig. 3/4). A
// std::vector puts every beat's keys, words and results on the heap, and
// each hop of the beat path (driver, engine, system FIFOs, unit) would pay
// an allocation per beat. InlineVec<T, N> holds up to N elements inside
// the object and spills to the heap above N; copies and moves cost
// O(size()), not O(N), since only the live prefix is copied.
//
// Once spilled, an InlineVec keeps its heap capacity through clear() and
// resize(), like std::vector, so reused scratch stops allocating when warm.
// T must be trivially copyable (payload records: words, keys, results).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <type_traits>

namespace dspcam {

template <typename T, std::size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>, "InlineVec holds plain records");
  static_assert(N > 0);

 public:
  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using reference = T&;
  using const_reference = const T&;
  using pointer = T*;
  using const_pointer = const T*;
  using iterator = T*;
  using const_iterator = const T*;

  // The inline buffer is left uninitialised: only [0, size()) is ever read.
  InlineVec() noexcept {}
  InlineVec(std::initializer_list<T> init) { assign(init.begin(), init.end()); }
  template <typename It>
  InlineVec(It first, It last) {
    assign(first, last);
  }

  InlineVec(const InlineVec& o) { copy_from(o); }
  InlineVec(InlineVec&& o) noexcept { steal(o); }
  InlineVec& operator=(const InlineVec& o) {
    if (this != &o) {
      size_ = 0;
      copy_from(o);
    }
    return *this;
  }
  InlineVec& operator=(InlineVec&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  InlineVec& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }
  ~InlineVec() { release(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return cap_; }
  /// True while the elements live in the object itself.
  bool is_inline() const noexcept { return data_ == inline_data(); }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  T& at(std::size_t i) { return data_[check(i)]; }
  const T& at(std::size_t i) const { return data_[check(i)]; }
  T& front() noexcept { return data_[0]; }
  const T& front() const noexcept { return data_[0]; }
  T& back() noexcept { return data_[size_ - 1]; }
  const T& back() const noexcept { return data_[size_ - 1]; }

  void clear() noexcept { size_ = 0; }
  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }
  /// New elements are value-initialised (T{}).
  void resize(std::size_t n) {
    reserve(n);
    for (std::size_t i = size_; i < n; ++i) data_[i] = T{};
    size_ = static_cast<std::uint32_t>(n);
  }
  /// By value: a `value` read from this vector survives grow().
  void push_back(T value) {
    if (size_ == cap_) grow(std::max<std::size_t>(2 * cap_, N));
    data_[size_++] = value;
  }

  /// Replaces the contents with [first, last), converting each element to
  /// T (so a list of 32-bit vertex ids fills a vector of 64-bit words).
  template <typename It>
  void assign(It first, It last) {
    size_ = 0;
    if constexpr (std::is_base_of_v<std::forward_iterator_tag,
                                    typename std::iterator_traits<It>::iterator_category>) {
      const auto n = static_cast<std::size_t>(std::distance(first, last));
      reserve(n);
      for (T* out = data_; first != last; ++first) *out++ = static_cast<T>(*first);
      size_ = static_cast<std::uint32_t>(n);
    } else {
      for (; first != last; ++first) push_back(static_cast<T>(*first));
    }
  }

  friend bool operator==(const InlineVec& a, const InlineVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  T* inline_data() noexcept { return reinterpret_cast<T*>(buf_); }
  const T* inline_data() const noexcept { return reinterpret_cast<const T*>(buf_); }

  std::size_t check(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("InlineVec::at");
    return i;
  }

  /// Elements per fixed 32-byte copy step.
  static constexpr std::size_t kChunk = sizeof(T) >= 32 ? 1 : 32 / sizeof(T);
  static_assert(N % kChunk == 0, "inline capacity must be whole copy steps");

  /// Copies n elements in whole kChunk steps, each a fixed-size memcpy the
  /// compiler inlines (a libc call per copy would cost more than a beat's
  /// payload). The last step may copy up to kChunk - 1 unused slots, which
  /// every buffer's capacity (a multiple of kChunk) covers.
  static void copy_n(T* dst, const T* src, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; i += kChunk) std::memcpy(dst + i, src + i, kChunk * sizeof(T));
  }

  void grow(std::size_t n) {
    n = (n + kChunk - 1) / kChunk * kChunk;
    T* bigger = static_cast<T*>(::operator new(n * sizeof(T)));
    copy_n(bigger, data_, size_);
    release();
    data_ = bigger;
    cap_ = static_cast<std::uint32_t>(n);
  }

  void release() noexcept {
    if (!is_inline()) ::operator delete(data_);
    data_ = inline_data();
    cap_ = N;
  }

  /// Copies o's elements into this (empty) vector.
  void copy_from(const InlineVec& o) {
    reserve(o.size_);
    copy_n(data_, o.data_, o.size_);
    size_ = o.size_;
  }

  /// Takes o's elements (its heap buffer, or a copy of its inline ones) and
  /// leaves o empty and inline. This vector must be inline and empty.
  void steal(InlineVec& o) noexcept {
    if (o.is_inline()) {
      copy_n(data_, o.data_, o.size_);
    } else {
      data_ = o.data_;
      cap_ = o.cap_;
      o.data_ = o.inline_data();
      o.cap_ = N;
    }
    size_ = o.size_;
    o.size_ = 0;
  }

  T* data_ = inline_data();
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;
  alignas(T) unsigned char buf_[N * sizeof(T)];
};

}  // namespace dspcam
