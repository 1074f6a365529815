#ifndef PREQR_SERVING_REQUEST_RING_H_
#define PREQR_SERVING_REQUEST_RING_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace preqr::serving {

// Fixed-capacity FIFO ring over preallocated slots (the pstress
// ring_buffer idiom): capacity rounds up to a power of two so head/tail
// are free-running uint64 counters masked into the slot array, push/pop
// never allocate, and a full ring is an explicit TryPush failure — the
// admission-control signal — instead of unbounded queue growth.
//
// The ring itself is NOT synchronized; EncoderService guards it with its
// queue mutex (admission bookkeeping — per-client counts, gauges — has to
// update atomically with the push anyway, so a lock-free ring would buy
// nothing and cost the shed/quota checks a second synchronization point).
template <typename T>
class RequestRing {
 public:
  explicit RequestRing(size_t capacity) {
    PREQR_CHECK_GT(capacity, size_t{0});
    size_t pow2 = 1;
    while (pow2 < capacity) pow2 <<= 1;
    slots_.resize(pow2);
    mask_ = pow2 - 1;
  }

  size_t capacity() const { return slots_.size(); }
  size_t size() const { return static_cast<size_t>(tail_ - head_); }
  bool empty() const { return head_ == tail_; }
  bool full() const { return size() == capacity(); }

  // False (and no effect) when the ring is full.
  bool TryPush(T value) {
    if (full()) return false;
    slots_[tail_ & mask_] = std::move(value);
    ++tail_;
    return true;
  }

  // False when empty; otherwise moves the oldest element into *out.
  bool TryPop(T* out) {
    if (empty()) return false;
    *out = std::move(slots_[head_ & mask_]);
    ++head_;
    return true;
  }

  // Read-only view of the i-th queued element (0 = oldest). Used by the
  // dispatch workers to find the oldest tenant free to encode.
  const T& Peek(size_t i) const {
    PREQR_CHECK_LT(i, size());
    return slots_[(head_ + i) & mask_];
  }

  // Calls `take(element)` on every queued element, oldest first, and
  // removes those it returns true for (it may move from them). The rest
  // stay queued in their original order. Returns how many were removed.
  template <typename Take>
  size_t RemoveIf(Take&& take) {
    uint64_t kept = head_;
    for (uint64_t i = head_; i != tail_; ++i) {
      T& slot = slots_[i & mask_];
      if (take(slot)) continue;
      if (kept != i) slots_[kept & mask_] = std::move(slot);
      ++kept;
    }
    const size_t removed = static_cast<size_t>(tail_ - kept);
    // Vacated slots drop whatever they still hold (e.g. a shared_ptr).
    for (uint64_t i = kept; i != tail_; ++i) slots_[i & mask_] = T();
    tail_ = kept;
    return removed;
  }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  uint64_t head_ = 0;  // next pop
  uint64_t tail_ = 0;  // next push
};

}  // namespace preqr::serving

#endif  // PREQR_SERVING_REQUEST_RING_H_
