// The simulated network interface card.
//
// Combines RSS spreading with the FDIR filter table and classifies each
// arriving packet the way the 82599's receive pipeline does:
//
//   1. FDIR perfect-match filters are consulted first. A matching filter
//      either drops the packet at the NIC (it never reaches main memory —
//      the "subzero copy" path, counted but otherwise free for the host) or
//      steers it to an explicit queue (dynamic load balancing).
//   2. Otherwise RSS hashes the 4-tuple onto one of the RX queues.
//
// The NIC itself is a classifier + statistics block; queueing/backlog is
// modeled by the per-core QueueServer the caller feeds (see src/sim/).
#pragma once

#include <cstdint>
#include <vector>

#include "base/hotpath.hpp"
#include "nic/fdir.hpp"
#include "nic/rss.hpp"
#include "trace/trace.hpp"

namespace scap::nic {

enum class RxDisposition : std::uint8_t {
  kDroppedByFilter,  // matched a drop filter; never touched host memory
  kToQueue,          // delivered to an RX queue (steered or RSS-hashed)
};

struct RxResult {
  RxDisposition disposition;
  int queue = 0;
};

struct NicStats {
  std::uint64_t packets_seen = 0;
  std::uint64_t bytes_seen = 0;
  std::uint64_t dropped_by_filter = 0;
  std::uint64_t bytes_dropped_by_filter = 0;
  std::uint64_t steered = 0;  // FDIR queue-steering hits
  std::vector<std::uint64_t> per_queue;
};

class Nic {
 public:
  Nic(int num_queues, RssKey key = symmetric_rss_key(),
      std::size_t fdir_capacity = 8192)
      : rss_(key, num_queues), fdir_(fdir_capacity, rss_.num_queues()) {
    stats_.per_queue.assign(static_cast<std::size_t>(rss_.num_queues()), 0);
  }

  /// Classify one arriving packet.
  SCAP_HOT RxResult receive(const Packet& pkt);

  /// Batched ingest, called with each packet of [pkt, end) just before it
  /// is received: start the frame loads receive() will make further on,
  /// the way handle_batch prefetches flow-table probes. The frame buffer
  /// object is fetched four packets ahead, the flex window behind it two
  /// ahead. Only flex filters read frames, so with no filter installed
  /// this does nothing.
  SCAP_HOT void prefetch_ahead(const Packet* pkt, const Packet* end) const;

  FdirTable& fdir() { return fdir_; }
  const FdirTable& fdir() const { return fdir_; }
  const RssEngine& rss() const { return rss_; }
  int num_queues() const { return rss_.num_queues(); }

  const NicStats& stats() const { return stats_; }
  void reset_stats() {
    stats_ = NicStats{};
    stats_.per_queue.assign(static_cast<std::size_t>(num_queues()), 0);
  }

  /// Attach the event tracer (kNicDrop for subzero-copy filter drops,
  /// kNicSteer for FDIR queue-steering hits; plain RSS stays untraced —
  /// it is every packet, and the kernel's verdict event already covers it).
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  /// Also where the NIC's owner records FDIR rejections and expiries.
  trace::Tracer* tracer() const { return tracer_; }

 private:
  RssEngine rss_;
  FdirTable fdir_;
  NicStats stats_;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace scap::nic
