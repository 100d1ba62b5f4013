#include "nic/nic.hpp"

namespace scap::nic {

namespace {

void prefetch_line(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

}  // namespace

RxResult Nic::receive(const Packet& pkt) {
  ++stats_.packets_seen;
  stats_.bytes_seen += pkt.wire_len();

  if (const FdirFilter* f = fdir_.match(pkt)) {
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

void Nic::prefetch_ahead(const Packet* pkt, const Packet* end) const {
  if (fdir_.size() == 0) return;
  if (end - pkt > 4) prefetch_line(pkt[4].frame_buffer().get());
  if (end - pkt > 2) {
    const auto frame = pkt[2].frame();
    if (frame.size() > kTcpFlagsFlexOffset) {
      prefetch_line(frame.data() + kTcpFlagsFlexOffset);
    }
  }
}

}  // namespace scap::nic
