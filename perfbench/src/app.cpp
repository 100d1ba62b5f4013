// The benchmark's application: what a Scap user would run in its handlers.
#include <bit>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {
constexpr std::size_t kRecordsPerMessage = 64;

/// IPFIX carries flowStart/EndMilliseconds, so times compare at ms.
bool same_record(const scap::exporter::FlowRecord& a,
                 const scap::exporter::FlowRecord& b) {
  return a.tuple == b.tuple && a.bytes == b.bytes && a.packets == b.packets &&
         a.first_seen.usec() / 1000 == b.first_seen.usec() / 1000 &&
         a.last_seen.usec() / 1000 == b.last_seen.usec() / 1000;
}
}  // namespace

App::App(const WorkloadSpec& spec, std::size_t max_streams)
    : kind_(spec.app) {
  if (kind_ == AppKind::kMatch) automaton_.build(vrt_patterns());
  // Fixed-size open-addressing stream tables, sized once at start-up so
  // the handlers never allocate: the application's own heap traffic stays
  // out of allocs_per_pkt.
  const std::size_t per_stripe =
      std::bit_ceil(max_streams * 4 / kStripes + 64);
  for (Stripe& s : stripes_) s.slots.resize(per_stripe);
  if (kind_ == AppKind::kExport) {
    pending_.reserve(kRecordsPerMessage);
    sent_.reserve(max_streams);
  }
}

App::Slot& App::slot_for(Stripe& s, const TupleKey& key) {
  const std::size_t mask = s.slots.size() - 1;
  std::size_t i = (key.hash() >> 4) & mask;
  for (std::size_t probes = 0; probes <= mask; ++probes) {
    Slot& slot = s.slots[i];
    if (!slot.used) {
      slot.used = true;
      slot.key = key;
      slot.ac_state = match::AhoCorasick::root_state();
      return slot;
    }
    if (slot.key == key) return slot;
    i = (i + 1) & mask;
  }
  throw std::length_error("application stream table full");
}

void App::on_data(scap::StreamView& sd, SpanLog* log) {
  const TupleKey key(sd.tuple());
  Stripe& s = stripes_[key.hash() % kStripes];
  const std::span<const std::uint8_t> data =
      sd.data().subspan(sd.overlap_len());
  std::lock_guard lock(s.mu);
  Slot& slot = slot_for(s, key);
  slot.digest.fold(data);
  if (kind_ == AppKind::kMatch) {
    Span scan(log, Layer::kMatchScan, 0);
    s.matches += automaton_.scan_stream(slot.ac_state, data);
  }
}

void App::on_terminated(scap::StreamView& sd, SpanLog* log) {
  const TupleKey key(sd.tuple());
  Stripe& s = stripes_[key.hash() % kStripes];
  {
    std::lock_guard lock(s.mu);
    Slot& slot = slot_for(s, key);
    if (slot.digest.bytes() > 0) {
      s.bytes += slot.digest.bytes();
      s.digest += slot.digest.finish(key);
      ++s.streams;
    }
    slot.digest = StreamDigest();
    slot.ac_state = match::AhoCorasick::root_state();
  }
  if (kind_ != AppKind::kExport) return;
  const scap::kernel::StreamStats& st = sd.stats();
  std::lock_guard lock(export_mu_);
  pending_.push_back(scap::exporter::FlowRecord{
      sd.tuple(), st.bytes, st.pkts, st.first_packet, st.last_packet});
  if (pending_.size() == kRecordsPerMessage) {
    flush_records(log, st.last_packet);
  }
}

void App::flush_records(SpanLog* log, scap::Timestamp now) {
  if (pending_.empty()) return;
  {
    Span encode(log, Layer::kExportEncode, 0);
    messages_.push_back(writer_.encode(pending_, now));
  }
  for (const auto& r : pending_) record_octets_ += r.bytes;
  records_ += pending_.size();
  sent_.insert(sent_.end(), pending_.begin(), pending_.end());
  pending_.clear();
}

void App::collect(Observed& got) {
  for (Stripe& s : stripes_) {
    std::lock_guard lock(s.mu);
    got.matches += s.matches;
    got.delivered_bytes += s.bytes;
    got.delivered_streams += s.streams;
    got.digest += s.digest;
  }
  if (kind_ != AppKind::kExport) return;
  std::lock_guard lock(export_mu_);
  flush_records(nullptr, scap::Timestamp());
  got.records = records_;
  got.record_octets = record_octets_;
  // Round trip: every encoded message decodes back to the records sent.
  scap::exporter::IpfixReader reader;
  std::size_t next = 0;
  bool ok = true;
  for (const auto& msg : messages_) {
    const auto decoded = reader.decode(msg);
    if (!decoded) {
      ok = false;
      break;
    }
    for (const auto& r : decoded->records) {
      if (next >= sent_.size() || !same_record(r, sent_[next])) ok = false;
      ++next;
    }
  }
  got.ipfix_roundtrip = ok && next == sent_.size();
}

}  // namespace perfbench
