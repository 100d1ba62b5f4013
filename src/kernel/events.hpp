// Events flowing from the kernel datapath to user-level worker threads
// (paper §5.4).
//
// Each event carries a snapshot of the stream's user-visible state — the
// paper keeps a second stream_t instance updated right before enqueueing an
// event to avoid races between the kernel and the application; the snapshot
// plays that role here. Data events additionally carry the completed chunk.
#pragma once

#include <cstdint>
#include <deque>
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

/// Per-core event queue. Unbounded by design: the real backpressure is the
/// shared chunk buffer — when workers fall behind, chunk memory stays
/// allocated and PPL starts dropping packets, which is the paper's overload
/// behaviour.
class EventQueue {
 public:
  void push(Event ev) {
    // scap-lint: allow(hot-alloc) deque growth is amortized and reaches steady state once consumers keep up; ROADMAP item 2 worklist (DESIGN.md §14 inventory)
    queue_.push_back(std::move(ev));
    if (queue_.size() > high_water_) high_water_ = queue_.size();
    ++pushed_;
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

  Event pop() {
    Event ev = std::move(queue_.front());
    queue_.pop_front();
    return ev;
  }

  std::uint64_t pushed() const { return pushed_; }
  std::size_t high_water() const { return high_water_; }

 private:
  std::deque<Event> queue_;
  std::uint64_t pushed_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace scap::kernel
