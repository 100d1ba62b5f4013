#include "kernel/memory.hpp"

#include "faultinject/faultinject.hpp"

namespace scap::kernel {

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

}  // namespace scap::kernel
