// Bounded FIFO queue with hardware-style full/empty handshaking.
//
// Models the bus-interface FIFOs that wrap the CAM unit (the paper notes the
// four BRAMs in its maximum build are exactly these interface FIFOs). The
// FIFO is deliberately simple - same-cycle visibility is the caller's
// responsibility; producer and consumer interact with it in their eval()
// phases, and ordering comes from their own registered state, not from the
// FIFO.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>

#include "src/common/error.h"
#include "src/common/ring_queue.h"

namespace dspcam::sim {

/// Bounded FIFO with capacity checking.
template <typename T>
class Fifo {
 public:
  /// Creates a FIFO holding at most `capacity` entries (>= 1).
  explicit Fifo(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) throw SimError("Fifo: capacity must be >= 1");
  }

  bool empty() const noexcept { return items_.empty(); }
  bool full() const noexcept { return items_.size() >= capacity_; }
  std::size_t size() const noexcept { return items_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Enqueues a value; throws SimError if full (callers must check full()
  /// and apply backpressure, as the RTL would).
  void push(T&& value) {
    if (full()) throw SimError("Fifo: push on full FIFO");
    items_.push_back(std::move(value));
  }
  void push(const T& value) {
    if (full()) throw SimError("Fifo: push on full FIFO");
    items_.push_back(value);
  }

  /// Front element; throws SimError if empty.
  const T& front() const {
    if (empty()) throw SimError("Fifo: front on empty FIFO");
    return items_.front();
  }

  /// Read-only iteration, front (oldest) to back - occupancy inspection.
  using const_iterator = typename RingQueue<T>::const_iterator;
  const_iterator begin() const noexcept { return items_.begin(); }
  const_iterator end() const noexcept { return items_.end(); }

  /// Dequeues and returns the front element; throws SimError if empty.
  T pop() {
    if (empty()) throw SimError("Fifo: pop on empty FIFO");
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  /// Dequeues the front element straight into an optional (one move of a
  /// possibly wide record); empty when the FIFO is.
  std::optional<T> try_pop() {
    if (empty()) return std::nullopt;
    std::optional<T> value(std::in_place, std::move(items_.front()));
    items_.pop_front();
    return value;
  }

  /// Discards all contents (synchronous reset).
  void clear() noexcept { items_.clear(); }

 private:
  std::size_t capacity_;
  RingQueue<T> items_;  ///< Allocation-free once warm.
};

}  // namespace dspcam::sim
