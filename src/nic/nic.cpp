#include "nic/nic.hpp"

namespace scap::nic {

RxResult Nic::receive(const Packet& pkt, std::uint64_t fdir_hash) {
  ++stats_.packets_seen;
  stats_.bytes_seen += pkt.wire_len();

  if (const FdirFilter* f = fdir_.match(pkt, fdir_hash)) {
    if (f->action == FdirAction::kDrop) {
      ++stats_.dropped_by_filter;
      stats_.bytes_dropped_by_filter += pkt.wire_len();
      SCAP_TRACE_EVENT(tracer_, trace::TraceEventType::kNicDrop, 0,
                       pkt.timestamp(), 0, 0, pkt.wire_len());
      return {RxDisposition::kDroppedByFilter, 0};
    }
    ++stats_.steered;
    ++stats_.per_queue[static_cast<std::size_t>(f->queue)];
    SCAP_TRACE_EVENT(tracer_, trace::TraceEventType::kNicSteer, f->queue,
                     pkt.timestamp(), 0,
                     static_cast<std::uint16_t>(f->queue), pkt.wire_len());
    return {RxDisposition::kToQueue, f->queue};
  }

  const int q = rss_.queue_for(pkt);
  ++stats_.per_queue[static_cast<std::size_t>(q)];
  return {RxDisposition::kToQueue, q};
}

}  // namespace scap::nic
