// Fixed-capacity ring buffer.
//
// Models every bounded queue in the pipeline: NIC RX descriptor rings, the
// PF_PACKET-style shared capture ring of the baselines, and the per-core
// event queues of the Scap kernel path. When a ring is full the producer
// drops — exactly the behaviour whose placement the paper's evaluation is
// about.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "base/hotpath.hpp"
#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"

namespace scap {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity)
      : slots_(capacity > 0 ? capacity : 1) {}

  std::size_t capacity() const { return slots_.size(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == slots_.size(); }

  /// Returns false (and counts a drop) when full.
  bool push(T value) {
    if (full()) {
      ++drops_;
      return false;
    }
    slots_[tail_] = std::move(value);
    tail_ = (tail_ + 1) % slots_.size();
    ++size_;
    if (size_ > high_water_) high_water_ = size_;
    return true;
  }

  std::optional<T> pop() {
    if (empty()) return std::nullopt;
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) % slots_.size();
    --size_;
    return value;
  }

  /// Peek without removing; undefined when empty (check empty() first).
  const T& front() const { return slots_[head_]; }

  std::uint64_t drops() const { return drops_; }
  std::size_t high_water() const { return high_water_; }
  void reset_counters() {
    drops_ = 0;
    high_water_ = size_;
  }

  void clear() {
    head_ = tail_ = 0;
    size_ = 0;
  }

 private:
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t drops_ = 0;
};

/// Destructive-interference padding. Fixed at 64 bytes (the line size on
/// every target we build for) rather than std::hardware_destructive_
/// interference_size, whose value shifts with -mtune and trips
/// -Winterference-size under SCAP_WERROR.
inline constexpr std::size_t kCacheLineSize = 64;

/// Lock-free single-producer/single-consumer ring (the shard ingest queue of
/// the multi-core datapath, DESIGN.md §12).
///
/// Classic Lamport queue with two refinements:
///   * head/tail live on their own cache lines (no producer/consumer
///     false sharing), and
///   * each side keeps a cached copy of the other side's index, so the
///     common case touches only its own line — the cross-core load happens
///     once per wrap-around, not once per element.
///
/// Single-writer discipline is a *capability*, not a comment: push sites
/// require the ring's producer SerialDomain and pop sites its consumer
/// SerialDomain, and the clang thread-safety analysis proves on every call
/// site that the caller holds that exact domain. The capacity is rounded
/// up to a power of two so index masking is a single AND.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// The producer-side serialization capability: exactly one thread may
  /// push, and it must hold (or structurally own) this domain.
  base::SerialDomain& producer() const SCAP_RETURN_CAPABILITY(producer_) {
    return producer_;
  }
  /// The consumer-side serialization capability (exactly one popper).
  base::SerialDomain& consumer() const SCAP_RETURN_CAPABILITY(consumer_) {
    return consumer_;
  }

  /// Producer: returns false when full (caller decides to retry or drop —
  /// the shard producer spins so no packet is ever lost to the handoff).
  /// On failure the value is NOT consumed: a retry loop can keep the same
  /// object and move it in once space frees up.
  SCAP_HOT bool try_push(T&& value) SCAP_REQUIRES(producer_) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ > mask_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ > mask_) return false;
    }
    slots_[static_cast<std::size_t>(tail) & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }
  SCAP_HOT bool try_push(const T& value) SCAP_REQUIRES(producer_) {
    // scap-lint: allow(hot-recursion) overload delegation (callgraph merges overloads by name)
    return try_push(T(value));
  }

  /// Consumer: pop one element.
  SCAP_HOT std::optional<T> try_pop() SCAP_REQUIRES(consumer_) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return std::nullopt;
    }
    T value = std::move(slots_[static_cast<std::size_t>(head) & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return value;
  }

  /// Consumer: pop up to out.size() elements in one acquire (the batched
  /// ingest handoff — one cross-core synchronization per batch, feeding
  /// ScapKernel::handle_batch's prefetching loop). Returns elements popped.
  SCAP_HOT std::size_t pop_batch(std::span<T> out) SCAP_REQUIRES(consumer_) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::uint64_t avail = cached_tail_ - head;
    if (avail == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = cached_tail_ - head;
      if (avail == 0) return 0;
    }
    const std::size_t n =
        avail < out.size() ? static_cast<std::size_t>(avail) : out.size();
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::move(slots_[static_cast<std::size_t>(head + i) & mask_]);
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Producer-exact occupancy: refreshes the producer's cached head so the
  /// result is never an overestimate from the producer's point of view (the
  /// consumer can only shrink it concurrently). This is what watermark
  /// admission keys on — a stale-high reading would shed packets the ring
  /// could in fact hold.
  SCAP_HOT std::size_t size_from_producer() SCAP_REQUIRES(producer_) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    cached_head_ = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - cached_head_);
  }

  /// Racy size estimate (monitoring only; exact from either endpoint's own
  /// side of the queue).
  std::size_t size_approx() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }
  bool empty_approx() const { return size_approx() == 0; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  mutable base::SerialDomain producer_;
  mutable base::SerialDomain consumer_;

  // Producer line: owns tail_, caches head_.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t cached_head_ = 0;
  // Consumer line: owns head_, caches tail_.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> head_{0};
  std::uint64_t cached_tail_ = 0;
};

/// Bounded lock-free multi-producer queue (Vyukov's bounded MPMC algorithm,
/// used MPSC here): the FDIR command channel of the sharded datapath. Any
/// worker may enqueue from its shard context without taking a shared lock;
/// the single consumer (the NIC-owning producer thread, holding the queue's
/// consumer SerialDomain) drains and applies commands between batches.
/// try_push returns false when full — FDIR offload is an optimization, so
/// callers count the failure and carry on (software cutoff still enforces).
template <typename T>
class MpscQueue {
 public:
  explicit MpscQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_ = std::vector<Slot>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  std::size_t capacity() const { return mask_ + 1; }

  base::SerialDomain& consumer() const SCAP_RETURN_CAPABILITY(consumer_) {
    return consumer_;
  }

  /// Any thread. Returns false when the queue is full (the value is not
  /// consumed on failure).
  SCAP_HOT bool try_push(T&& value) {
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[static_cast<std::size_t>(tail) & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const std::int64_t diff =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(tail);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(tail, tail + 1,
                                        std::memory_order_relaxed)) {
          slot.value = std::move(value);
          slot.seq.store(tail + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        tail = tail_.load(std::memory_order_relaxed);
      }
    }
  }
  SCAP_HOT bool try_push(const T& value) {
    // scap-lint: allow(hot-recursion) overload delegation (callgraph merges overloads by name)
    return try_push(T(value));
  }

  /// Single consumer only (holds the consumer SerialDomain).
  std::optional<T> try_pop() SCAP_REQUIRES(consumer_) {
    Slot& slot = slots_[static_cast<std::size_t>(head_) & mask_];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (static_cast<std::int64_t>(seq) -
            static_cast<std::int64_t>(head_ + 1) < 0) {
      return std::nullopt;  // empty
    }
    T value = std::move(slot.value);
    slot.seq.store(head_ + mask_ + 1, std::memory_order_release);
    ++head_;
    return value;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  mutable base::SerialDomain consumer_;
  alignas(kCacheLineSize) std::atomic<std::uint64_t> tail_{0};
  alignas(kCacheLineSize) std::uint64_t head_ = 0;
};

}  // namespace scap
