// Stream-buffer memory (paper §5.3).
//
// The real Scap maps one large kernel buffer into user space, carves
// per-stream chunk blocks out of it, and the consumer hands each chunk
// back once it is done with it. This class plays both parts:
//
//   - the byte budget over the configured buffer size — the occupancy PPL
//     reads (allocate / release / used_fraction);
//   - the owner of the chunk bytes between uses. Chunk buffers are
//     recycled through LIFO free lists, one per power-of-two size class
//     from 2 KiB up, plus one list of packet-record vectors (need_pkts).
//     A chunk takes a buffer when it starts and climbs to the next class
//     up when it outgrows its own; release hands the buffer back empty
//     with its capacity kept, so steady-state delivery allocates nothing;
//   - the hand-off vector through which every reassembler bound to it
//     returns completed chunks. One per kernel rather than one per record
//     slot, so a stream's first chunk on a never-used slot allocates
//     nothing once any stream has completed one.
//
// Classes climb for every chunk instead of handing out chunk_size blocks
// because most chunks are flushed small: fixed blocks cost +50 % RSS on
// the NIDS workload, climbing +6–9 % (ROADMAP item 1). The budget does not
// see the classes — it reserves chunk_size per open block as before, so
// PPL decisions do not depend on how the bytes are laid out. The class
// hands out no addresses: the fig07 cache model takes its addresses from
// CacheTracker::stream_base.
//
// The free lists belong to the kernel's serial domain like the rest of
// the kernel; nothing here is atomic. Under AddressSanitizer a buffer is
// poisoned while it sits on a free list, so reading a released chunk's
// bytes is reported instead of silently seeing recycled data.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/assert.hpp"
#include "kernel/stream.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define SCAP_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SCAP_ASAN 1
#endif
#endif

namespace scap::kernel {

/// A contiguous piece of reassembled stream data, ready for delivery.
struct Chunk {
  std::vector<std::uint8_t> data;
  /// Stream offset of data[0] — including any overlap prefix repeated from
  /// the previous chunk.
  std::uint64_t stream_offset = 0;
  /// Leading bytes repeated from the previous chunk (pattern continuity).
  std::uint32_t overlap_len = 0;
  /// StreamError bits raised while assembling this chunk.
  std::uint32_t errors = 0;
  /// Arrival time of the first segment that contributed new bytes — the
  /// start of the chunk-latency interval the tracer measures (DESIGN.md
  /// §10); delivery time minus first_ts is the paper's per-chunk latency.
  Timestamp first_ts;
  std::vector<PacketRecord> packets;
};

class ChunkAllocator {
 public:
  using Bytes = std::vector<std::uint8_t>;
  using Records = std::vector<PacketRecord>;

  /// Smallest size class; class c holds buffers of kMinClassBytes << c.
  static constexpr std::size_t kMinClassBytes = 2048;
  /// 2 KiB .. 64 MiB; larger requests get a fresh exact-size buffer.
  static constexpr std::size_t kNumClasses = 16;

  explicit ChunkAllocator(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Reserve `size` bytes; false when the buffer is exhausted.
  bool allocate(std::uint32_t size);

  /// Reserve `size` bytes even when it overshoots capacity. Used for bytes
  /// that are already physically written (e.g. the tail of a packet that
  /// crossed a chunk boundary); PPL keeps the overshoot bounded to one
  /// chunk per stream.
  void allocate_forced(std::uint32_t size);

  /// Return `size` reserved bytes. Releasing more than is reserved is a
  /// caller bug (a chunk released twice): it asserts in checked builds and
  /// clamps at zero otherwise.
  void release(std::uint32_t size) {
    SCAP_ASSERT(size <= used_, "released more chunk bytes than reserved");
    used_ = used_ >= size ? used_ - size : 0;
  }

  /// An empty buffer whose capacity holds at least `bytes`: the most
  /// recently recycled one of the smallest class that fits, else a new one
  /// of that class's size.
  Bytes take_bytes(std::size_t bytes);
  /// An empty packet-record vector, recycled when one is available.
  Records take_records();
  /// Put `buf`'s storage on its free list, emptied but keeping its
  /// capacity, and leave `buf` without storage. A no-op on a buffer that
  /// has none, so recycling the same chunk twice changes nothing.
  void recycle(Bytes& buf);
  void recycle(Records& recs);

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t used() const { return used_; }
  double used_fraction() const {
    return capacity_ ? static_cast<double>(used_) / static_cast<double>(capacity_) : 1.0;
  }

  std::uint64_t allocations() const { return allocations_; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t high_water() const { return high_water_; }
  /// Buffers (bytes and record vectors) currently on the free lists.
  std::size_t free_buffers() const;

  /// Completed chunks on their way out of the ChunkBuilder that made them
  /// (ChunkBuilder::handoff). Each reassembler call clears it first, so
  /// what one call completed is valid until the next call on any
  /// reassembler bound to this allocator.
  std::vector<Chunk>& handoff() { return handoff_; }

 private:
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t high_water_ = 0;
  std::array<std::vector<Bytes>, kNumClasses> free_bytes_;
  std::vector<Records> free_records_;
  std::vector<Chunk> handoff_;
};

}  // namespace scap::kernel
