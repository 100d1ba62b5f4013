// Stream-buffer memory accounting (paper §5.3).
//
// The real Scap maps one large kernel buffer into user space and carves
// per-stream chunk blocks out of it. Here the chunk *bytes* live in
// ordinary vectors owned by the streams/events, and this class is only the
// byte budget over the configured buffer size — the occupancy PPL reads.
// It hands out no addresses: the fig07 cache model takes its addresses
// from CacheTracker::stream_base. A real arena (ROADMAP item 1) brings
// offsets back, in the place where the bytes live.
#pragma once

#include <cstdint>

namespace scap::kernel {

class ChunkAllocator {
 public:
  explicit ChunkAllocator(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Reserve `size` bytes; false when the buffer is exhausted.
  bool allocate(std::uint32_t size);

  /// Reserve `size` bytes even when it overshoots capacity. Used for bytes
  /// that are already physically written (e.g. the tail of a packet that
  /// crossed a chunk boundary); PPL keeps the overshoot bounded to one
  /// chunk per stream.
  void allocate_forced(std::uint32_t size);

  /// Return `size` reserved bytes.
  void release(std::uint32_t size) {
    used_ = used_ >= size ? used_ - size : 0;
  }

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t used() const { return used_; }
  double used_fraction() const {
    return capacity_ ? static_cast<double>(used_) / static_cast<double>(capacity_) : 1.0;
  }

  std::uint64_t allocations() const { return allocations_; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t high_water() const { return high_water_; }

 private:
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t high_water_ = 0;
};

}  // namespace scap::kernel
