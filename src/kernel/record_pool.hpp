// Slab allocator for StreamRecords (fast-path memory layout, DESIGN.md).
//
// Stream create/terminate is the second-hottest kernel operation after flow
// lookup; allocating each StreamRecord (plus its TcpReassembler) with
// operator new puts a malloc/free pair on that path and scatters records
// across the heap. The pool carves records out of fixed-size slabs and
// recycles them through a freelist. Each record holds its reassembler by
// value, so slab growth is the only allocation that scales with streams.
// A slab starts as raw storage and a slot's record (reassembler included)
// is built on its first acquire, so slots no stream has used cost neither
// construction time nor resident memory. A released record — including
// its reassembler and that reassembler's grown buffers — is handed back to
// the next create.
//
// Pointer stability: slabs are never freed while the pool lives, so a
// StreamRecord* stays valid from acquire() until release() regardless of
// how many records are created in between (the flow table relies on this
// across rehashes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "kernel/flow_table.hpp"

namespace scap::kernel {

class RecordPool {
 public:
  /// `slab_records`: records per slab (one slab is allocated up front).
  explicit RecordPool(std::size_t slab_records = 1024);

  RecordPool(const RecordPool&) = delete;
  RecordPool& operator=(const RecordPool&) = delete;
  ~RecordPool();

  /// Take a record. All fields are value-initialized except `reasm`, which
  /// keeps the slot's reassembler (with its grown buffers) for the caller
  /// to reset(). Allocates a new slab only when the freelist is empty.
  StreamRecord* acquire();

  /// Return a record to the freelist. The record's reassembler is kept
  /// for the slot's next stream; everything else becomes garbage.
  void release(StreamRecord* rec);

  RecordPoolStats stats() const;

 private:
  /// Uninitialized room for one record.
  struct alignas(StreamRecord) RecordStorage {
    std::byte bytes[sizeof(StreamRecord)];
  };

  void grow();

  std::size_t slab_records_;
  std::vector<std::unique_ptr<RecordStorage[]>> slabs_;
  /// Freelist as an explicit stack over pre-sized storage: grow() resizes
  /// `free_` to the full pool, `free_count_` marks the live top. Pushes
  /// and pops are index assignments, so the per-stream path never grows a
  /// container.
  std::vector<StreamRecord*> free_;
  std::size_t free_count_ = 0;
  /// Slots never handed out, still raw storage. grow() runs only on an
  /// empty freelist and release() pushes on top, so they are always
  /// free_[0, never_used_).
  std::size_t never_used_ = 0;
  std::uint64_t acquired_total_ = 0;
  std::uint64_t recycled_total_ = 0;
  std::uint64_t acquire_failures_ = 0;  // injected allocation failures
};

}  // namespace scap::kernel
