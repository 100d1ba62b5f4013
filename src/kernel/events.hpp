// Events flowing from the kernel datapath to user-level worker threads
// (paper §5.4).
//
// Each event carries a snapshot of the stream's user-visible state — the
// paper keeps a second stream_t instance updated right before enqueueing an
// event to avoid races between the kernel and the application; the snapshot
// plays that role here. Data events additionally carry the completed chunk.
#pragma once

#include <cstdint>
#include <vector>

#include "kernel/reassembly.hpp"
#include "kernel/stream.hpp"

namespace scap::kernel {

/// User-visible stream state (the application's copy of stream_t).
struct StreamSnapshot {
  StreamId id = kInvalidStreamId;
  FiveTuple tuple;
  Direction dir = Direction::kOrig;
  StreamId opposite = kInvalidStreamId;
  StreamStatus status = StreamStatus::kActive;
  bool cutoff_exceeded = false;
  std::uint32_t error_bits = 0;
  StreamStats stats;
  StreamParams params;
  std::uint64_t chunks_delivered = 0;
  Duration processing_time = Duration(0);
};

enum class EventType : std::uint8_t { kCreated, kData, kTerminated };

struct Event {
  EventType type = EventType::kData;
  StreamSnapshot stream;
  Chunk chunk;  // data events only
  /// Allocator bytes the consumer must release after processing.
  std::uint32_t chunk_alloc = 0;
  /// Which attached applications should see this event (bit per app).
  std::uint64_t app_mask = ~0ULL;
};

/// Per-core event queue: a power-of-two ring of Events that doubles when
/// full and keeps its capacity, so once it has grown to the consumers'
/// backlog, pushes allocate nothing. Popping moves the event out and
/// leaves a slot that owns no chunk buffer.
///
/// Unbounded by design: the real backpressure is the shared chunk buffer —
/// when workers fall behind, chunk memory stays allocated and PPL starts
/// dropping packets, which is the paper's overload behaviour.
class EventQueue {
 public:
  void push(Event ev) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(ev);
    ++size_;
    if (size_ > high_water_) high_water_ = size_;
    ++pushed_;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  Event pop() {
    Event ev = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return ev;
  }

  std::uint64_t pushed() const { return pushed_; }
  std::size_t high_water() const { return high_water_; }

 private:
  static constexpr std::size_t kInitialSlots = 16;

  /// Double the ring, unrolling it so the oldest event lands in slot 0.
  void grow() {
    std::vector<Event> bigger;
    // scap-lint: allow(hot-alloc) ring growth only: it doubles when full and keeps its capacity, so it stops once it fits the consumers' backlog (DESIGN.md §14 inventory)
    bigger.resize(slots_.empty() ? kInitialSlots : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<Event> slots_;  // size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t pushed_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace scap::kernel
