#include "kernel/record_pool.hpp"

#include <new>

#include "faultinject/faultinject.hpp"

namespace scap::kernel {

RecordPool::RecordPool(std::size_t slab_records)
    : slab_records_(slab_records ? slab_records : 1) {
  grow();
}

RecordPool::~RecordPool() {
  // Every slab but the last was used up before the next one was made. The
  // last one's slots are built in address order, so the never-used ones
  // are its tail.
  for (std::size_t s = 0; s < slabs_.size(); ++s) {
    const std::size_t built =
        s + 1 < slabs_.size() ? slab_records_ : slab_records_ - never_used_;
    for (std::size_t i = 0; i < built; ++i) {
      std::destroy_at(
          std::launder(reinterpret_cast<StreamRecord*>(&slabs_[s][i])));
    }
  }
}

void RecordPool::grow() {
  // Raw storage: a record is built on its slot's first acquire, so pages
  // of slots no stream has used yet stay untouched.
  // scap-lint: allow(hot-alloc) slab growth: one allocation per slab_records new streams, zero once the pool covers the working set (DESIGN.md §14 inventory)
  std::unique_ptr<RecordStorage[]> slab(new RecordStorage[slab_records_]);
  // Size the freelist backing store for the full pool up front, so the
  // refill below and release() are plain index assignments — the freelist
  // itself never performs a growth call on the per-stream path.
  // scap-lint: allow(hot-alloc) freelist resize rides the amortized slab growth above
  free_.resize((slabs_.size() + 1) * slab_records_);
  // Hand out low addresses first (the live stack is popped from the top).
  for (std::size_t i = slab_records_; i-- > 0;) {
    free_[free_count_++] = reinterpret_cast<StreamRecord*>(&slab[i]);
  }
  never_used_ = free_count_;
  // scap-lint: allow(hot-alloc) slab bookkeeping rides the amortized slab growth
  slabs_.push_back(std::move(slab));
}

StreamRecord* RecordPool::acquire() {
  // Injected slab-allocation failure (models a failed kmalloc of a new
  // slab): callers must treat nullptr as "stream cannot be tracked".
  if (faultinject::should_fail(faultinject::FaultPoint::kRecordPoolAcquire)) {
    ++acquire_failures_;
    return nullptr;
  }
  if (free_count_ == 0) grow();
  StreamRecord* rec = free_[--free_count_];
  ++acquired_total_;
  if (free_count_ < never_used_) {
    // The slot's first use: build the record, reassembler included.
    never_used_ = free_count_;
    return std::construct_at(rec);
  }
  ++recycled_total_;
  // Reset every field to its default, but keep the slot's reassembler
  // (with its grown internal buffers) for the caller to reset() and reuse.
  static_cast<StreamFields&>(*rec) = StreamFields{};
  return rec;
}

// Index assignment into storage grow() already sized for the full pool:
// a release can never outrun the capacity it was acquired from.
void RecordPool::release(StreamRecord* rec) { free_[free_count_++] = rec; }

RecordPoolStats RecordPool::stats() const {
  RecordPoolStats s;
  s.capacity = slabs_.size() * slab_records_;
  s.free = free_count_;
  s.slabs = slabs_.size();
  s.acquired_total = acquired_total_;
  s.recycled_total = recycled_total_;
  s.acquire_failures = acquire_failures_;
  return s;
}

}  // namespace scap::kernel
