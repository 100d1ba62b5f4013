#include "kernel/memory.hpp"

#include <bit>

#include "faultinject/faultinject.hpp"

#if defined(SCAP_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace scap::kernel {
namespace {

constexpr int kMinClassShift = std::countr_zero(ChunkAllocator::kMinClassBytes);

/// Smallest class whose buffers hold `bytes` (kNumClasses when none does).
std::size_t class_of_request(std::size_t bytes) {
  if (bytes <= ChunkAllocator::kMinClassBytes) return 0;
  return static_cast<std::size_t>(std::bit_width(bytes - 1)) - kMinClassShift;
}

/// Largest class a buffer of `capacity` bytes can serve (capacity must be
/// at least kMinClassBytes).
std::size_t class_of_capacity(std::size_t capacity) {
  const std::size_t c =
      static_cast<std::size_t>(std::bit_width(capacity)) - 1 - kMinClassShift;
  return c < ChunkAllocator::kNumClasses ? c
                                         : ChunkAllocator::kNumClasses - 1;
}

// A buffer on a free list is poisoned so ASan reports reads through a
// released chunk's stale pointers.
template <typename T>
void poison(const std::vector<T>& v) {
#if defined(SCAP_ASAN)
  __asan_poison_memory_region(v.data(), v.capacity() * sizeof(T));
#else
  (void)v;
#endif
}

template <typename T>
void unpoison(const std::vector<T>& v) {
#if defined(SCAP_ASAN)
  __asan_unpoison_memory_region(v.data(), v.capacity() * sizeof(T));
#else
  (void)v;
#endif
}

}  // namespace

bool ChunkAllocator::allocate(std::uint32_t size) {
  // Injected failure: indistinguishable from exhaustion to the caller, and
  // counted through the same failures() statistic.
  if (faultinject::should_fail(faultinject::FaultPoint::kChunkAlloc) ||
      used_ + size > capacity_) {
    ++failures_;
    return false;
  }
  allocate_forced(size);
  return true;
}

void ChunkAllocator::allocate_forced(std::uint32_t size) {
  used_ += size;
  if (used_ > high_water_) high_water_ = used_;
  ++allocations_;
}

ChunkAllocator::Bytes ChunkAllocator::take_bytes(std::size_t bytes) {
  const std::size_t c = class_of_request(bytes);
  if (c < kNumClasses && !free_bytes_[c].empty()) {
    Bytes buf = std::move(free_bytes_[c].back());
    free_bytes_[c].pop_back();
    unpoison(buf);
    return buf;
  }
  Bytes buf;
  // scap-lint: allow(hot-alloc) a size class's first buffers only: released chunks come back to the class's free list, so steady-state delivery reuses them (DESIGN.md §14 inventory)
  buf.reserve(c < kNumClasses ? kMinClassBytes << c : bytes);
  return buf;
}

ChunkAllocator::Records ChunkAllocator::take_records() {
  if (free_records_.empty()) return {};
  Records recs = std::move(free_records_.back());
  free_records_.pop_back();
  unpoison(recs);
  return recs;
}

void ChunkAllocator::recycle(Bytes& buf) {
  if (buf.capacity() < kMinClassBytes) {
    // No storage, or too small to serve any class: nothing to keep.
    buf = Bytes();
    return;
  }
  buf.clear();
  poison(buf);
  // scap-lint: allow(hot-alloc) free-list growth only: a list holds at most the peak number of live buffers of its class and keeps its capacity
  free_bytes_[class_of_capacity(buf.capacity())].push_back(std::move(buf));
}

void ChunkAllocator::recycle(Records& recs) {
  if (recs.capacity() == 0) return;
  recs.clear();
  poison(recs);
  // scap-lint: allow(hot-alloc) free-list growth only: the list holds at most the peak number of live chunks and keeps its capacity
  free_records_.push_back(std::move(recs));
}

std::size_t ChunkAllocator::free_buffers() const {
  std::size_t n = free_records_.size();
  for (const auto& list : free_bytes_) n += list.size();
  return n;
}

}  // namespace scap::kernel
