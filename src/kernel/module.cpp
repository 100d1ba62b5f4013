#include "kernel/module.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <numeric>

#include "base/assert.hpp"
#include "packet/craft.hpp"

namespace scap::kernel {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kInvalid: return "invalid";
    case Verdict::kFragmentHeld: return "fragment_held";
    case Verdict::kFilteredBpf: return "filtered_bpf";
    case Verdict::kIgnored: return "ignored";
    case Verdict::kControl: return "control";
    case Verdict::kStored: return "stored";
    case Verdict::kCutoffDiscard: return "cutoff_discard";
    case Verdict::kDupDiscard: return "dup_discard";
    case Verdict::kPplDrop: return "ppl_drop";
    case Verdict::kNoMemDrop: return "nomem_drop";
    case Verdict::kNoRecordDrop: return "norec_drop";
    case Verdict::kChecksumDrop: return "checksum_drop";
    case Verdict::kBuffered: return "buffered";
  }
  return "unknown";
}

namespace {

std::string violation(const char* law, std::uint64_t lhs, std::uint64_t rhs) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "conservation violated: %s (%" PRIu64 " != %" PRIu64 ")", law,
                lhs, rhs);
  return buf;
}

// Bytes the counter table's rows occupy. A field written into KernelStats
// by hand, outside the table, would be missed by merge(), normalized(), the
// scap_stats_t mirror and chaos_run; the static_assert below rejects it.
constexpr std::size_t table_bytes() {
  std::size_t n = 0;
#define SCAP_STATS_FIELD(name, combine, determinism) \
  n += sizeof(StatCell<StatCombine::combine>::type);
#define SCAP_STATS_ARRAY(name, combine, determinism, kernel_size, c_capacity) \
  n += sizeof(StatCell<StatCombine::combine>::type) * (kernel_size);
#include "kernel/stats_determinism.inc"
  return n;
}
static_assert(sizeof(KernelStats) == table_bytes(),
              "KernelStats has a field outside the counter table");

}  // namespace

void KernelStats::merge(const KernelStats& other) {
#define SCAP_STATS_FIELD(name, combine, determinism) \
  combine_cell<StatCombine::combine>(name, other.name);
#define SCAP_STATS_ARRAY(name, combine, determinism, kernel_size, c_capacity) \
  for (std::size_t i = 0; i < kernel_size; ++i) {                             \
    combine_cell<StatCombine::combine>(name[i], other.name[i]);               \
  }
#include "kernel/stats_determinism.inc"
}

KernelStats normalized(KernelStats s) {
#define SCAP_STATS_FIELD(name, combine, determinism) \
  if constexpr (StatDeterminism::determinism !=      \
                StatDeterminism::kDeterministic) {   \
    s.name = StatCell<StatCombine::combine>::kInit;  \
  }
#define SCAP_STATS_ARRAY(name, combine, determinism, kernel_size, c_capacity) \
  if constexpr (StatDeterminism::determinism !=                               \
                StatDeterminism::kDeterministic) {                            \
    std::fill(std::begin(s.name), std::end(s.name),                           \
              StatCell<StatCombine::combine>::kInit);                         \
  }
#include "kernel/stats_determinism.inc"
  return s;
}

std::string KernelStats::check_conservation() const {
  // Law 1: every packet that entered landed in exactly one verdict bucket.
  const std::uint64_t verdict_sum =
      std::accumulate(verdicts, verdicts + kNumVerdicts, std::uint64_t{0});
  if (verdict_sum != pkts_seen) {
    return violation("pkts_seen == sum(verdicts)", pkts_seen, verdict_sum);
  }

  // Law 2: each delivery/drop scalar equals its verdict bucket — a counter
  // incremented without its verdict (or a verdict set without its counter)
  // breaks the pairing.
  struct Pair {
    Verdict v;
    std::uint64_t counter;
    const char* law;
  };
  const Pair pairs[] = {
      {Verdict::kInvalid, pkts_invalid, "verdicts[invalid] == pkts_invalid"},
      {Verdict::kFragmentHeld, pkts_frag_held,
       "verdicts[fragment_held] == pkts_frag_held"},
      {Verdict::kFilteredBpf, pkts_filtered,
       "verdicts[filtered_bpf] == pkts_filtered"},
      {Verdict::kIgnored, pkts_ignored, "verdicts[ignored] == pkts_ignored"},
      {Verdict::kControl, pkts_control, "verdicts[control] == pkts_control"},
      {Verdict::kStored, pkts_stored, "verdicts[stored] == pkts_stored"},
      {Verdict::kCutoffDiscard, pkts_cutoff,
       "verdicts[cutoff_discard] == pkts_cutoff"},
      {Verdict::kDupDiscard, pkts_dup, "verdicts[dup_discard] == pkts_dup"},
      {Verdict::kPplDrop, pkts_ppl_dropped,
       "verdicts[ppl_drop] == pkts_ppl_dropped"},
      {Verdict::kNoMemDrop, pkts_nomem_dropped,
       "verdicts[nomem_drop] == pkts_nomem_dropped"},
      {Verdict::kNoRecordDrop, pkts_norec_dropped,
       "verdicts[norec_drop] == pkts_norec_dropped"},
      {Verdict::kChecksumDrop, pkts_bad_checksum,
       "verdicts[checksum_drop] == pkts_bad_checksum"},
      {Verdict::kBuffered, pkts_buffered,
       "verdicts[buffered] == pkts_buffered"},
  };
  static_assert(std::size(pairs) == kNumVerdicts,
                "every Verdict needs a conservation pairing");
  for (const Pair& p : pairs) {
    const std::uint64_t bucket = verdicts[static_cast<std::size_t>(p.v)];
    if (bucket != p.counter) return violation(p.law, bucket, p.counter);
  }

  // Law 3: the parse-error taxonomy accounts for every invalid packet.
  const std::uint64_t taxonomy_sum = std::accumulate(
      parse_errors, parse_errors + kNumDecodeErrors, std::uint64_t{0});
  if (taxonomy_sum != pkts_invalid) {
    return violation("sum(parse_errors) == pkts_invalid", taxonomy_sum,
                     pkts_invalid);
  }

  // Law 4: stream lifecycle reconciles — every created stream is either
  // still live or was terminated (eviction and expiry both terminate).
  if (streams_created != streams_terminated + streams_active) {
    return violation("streams_created == streams_terminated + streams_active",
                     streams_created, streams_terminated + streams_active);
  }
  if (streams_evicted > streams_terminated) {
    return violation("streams_evicted <= streams_terminated", streams_evicted,
                     streams_terminated);
  }

  // Law 5: record-pool acquire/release balance — the records missing from
  // the freelist are exactly the live streams (slab records never leak).
  if (pool_capacity - pool_free != streams_active) {
    return violation("pool in-use == streams_active",
                     pool_capacity - pool_free, streams_active);
  }

  // Law 6: sub-counters stay within their parents.
  if (reasm_alloc_failures > pkts_nomem_dropped) {
    return violation("reasm_alloc_failures <= pkts_nomem_dropped",
                     reasm_alloc_failures, pkts_nomem_dropped);
  }
  if (bytes_stored > bytes_seen) {
    return violation("bytes_stored <= bytes_seen", bytes_stored, bytes_seen);
  }

  // Law 7: FDIR removals never outrun installs — every removed (or
  // expired) cutoff filter was placed by a counted install, and each
  // counted install/reinstall places at most two filters (one per cutoff
  // flag combination). Queue-mode apply-time counting preserves this: a
  // removal is only counted when a physically present filter comes out of
  // the table. Queue-steering filters are not the kernel's: removal takes
  // only drop filters out, and the expiry pass only reaches filters that
  // expire.
  if (fdir_removals > 2 * (fdir_installs + fdir_reinstalls)) {
    return violation("fdir_removals <= 2*(fdir_installs + fdir_reinstalls)",
                     fdir_removals, 2 * (fdir_installs + fdir_reinstalls));
  }

  // Law 8: stall sheds are a subset of ring sheds (ring_shed_* counts every
  // packet shed at admission, whatever the reason).
  if (ring_stall_shed_pkts > ring_shed_pkts) {
    return violation("ring_stall_shed_pkts <= ring_shed_pkts",
                     ring_stall_shed_pkts, ring_shed_pkts);
  }
  if (ring_stall_shed_bytes > ring_shed_bytes) {
    return violation("ring_stall_shed_bytes <= ring_shed_bytes",
                     ring_stall_shed_bytes, ring_shed_bytes);
  }
  return {};
}

std::string ScapKernel::check_invariants() const {
  // stats() mirrors pool occupancy, live-stream count and controller state
  // into the snapshot the conservation checker needs.
  std::string report = stats().check_conservation();
  if (!report.empty()) return report;

  // PPL priority monotonicity (paper §2.2): the watermark ladder must be
  // non-decreasing in priority and anchored in [base_threshold, 1]. With a
  // monotone ladder, admit() can never drop a higher-priority packet while
  // admitting a lower-priority one at the same occupancy and offset.
  const int levels = ppl_.config().priority_levels;
  double prev = ppl_.config().base_threshold;
  for (int p = 0; p < levels; ++p) {
    const double w = ppl_.watermark(p);
    if (w < prev) {
      return "ppl watermark ladder not monotone at priority " +
             std::to_string(p);
    }
    prev = w;
  }
  if (prev > 1.0 + 1e-9) return "ppl watermark ladder exceeds memory_size";

  // The adaptive controller may only tighten below the static start cutoff,
  // never below its floor (PPL drops stay priority-monotone because the
  // ladder itself is untouched; DESIGN.md §8).
  const PplControllerState& ctl = ppl_.controller();
  if (ctl.overload && ctl.effective_cutoff < ppl_.config().min_cutoff) {
    return "ppl adaptive cutoff fell below min_cutoff";
  }

#if defined(SCAP_ENABLE_TRACE)
  // Trace conservation (DESIGN.md §10): the tracer's per-type counts are
  // cumulative at record time (independent of ring wrap), so they must
  // track their kernel counters exactly — an emit site missing next to a
  // counter increment (or vice versa) shows up here. Requires the tracer
  // to have been attached before the first packet (set_tracer asserts it).
  if (tracer_ != nullptr) {
    struct TraceLaw {
      trace::TraceEventType type;
      std::uint64_t counter;
      const char* law;
    };
    const TraceLaw laws[] = {
        {trace::TraceEventType::kPacketVerdict, stats_.pkts_seen,
         "trace(packet_verdict) == pkts_seen"},
        {trace::TraceEventType::kStreamCreated, stats_.streams_created,
         "trace(stream_created) == streams_created"},
        {trace::TraceEventType::kStreamTerminated, stats_.streams_terminated,
         "trace(stream_terminated) == streams_terminated"},
        {trace::TraceEventType::kChunkDelivered, stats_.chunks_delivered,
         "trace(chunk_delivered) == chunks_delivered"},
    };
    for (const TraceLaw& l : laws) {
      const std::uint64_t recorded = tracer_->recorded_of(l.type);
      if (recorded != l.counter) return violation(l.law, recorded, l.counter);
    }
    const trace::MetricsRegistry& m = tracer_->metrics();
    if (m.chunk_latency_us.total() != stats_.chunks_delivered) {
      return violation("hist(chunk_latency_us) == chunks_delivered",
                       m.chunk_latency_us.total(), stats_.chunks_delivered);
    }
    if (m.stream_size_bytes.total() != stats_.streams_terminated) {
      return violation("hist(stream_size_bytes) == streams_terminated",
                       m.stream_size_bytes.total(),
                       stats_.streams_terminated);
    }
  }
#endif
  return {};
}

ScapKernel::ScapKernel(KernelConfig config, nic::Nic* nic)
    : config_(std::move(config)),
      nic_(nic),
      allocator_(config_.memory_size),
      table_(config_.max_streams, config_.flow_hash_seed),
      ppl_(config_.ppl),
      defrag_(IpDefragmenter::Config{.policy = config_.defaults.policy}) {
  SCAP_ASSERT(config_.num_cores == 1, "a kernel serves one core");
  if (config_.use_fdir) {
    fdir_outbox_ = std::make_unique<FdirCommandQueue>(kFdirOutboxCapacity);
  }
}

FdirApplied apply_fdir_commands(FdirCommandQueue& outbox, nic::Nic& nic,
                                Timestamp now) {
  FdirApplied applied;
  base::SerialGuard consumer(outbox.consumer());
  while (auto cmd = outbox.try_pop()) {
    switch (cmd->kind) {
      case FdirCommand::Kind::kInstallCutoff: {
        // A rejected filter leaves enforcement in software (the kernel-level
        // cutoff still discards); the stream retries once its lifetime ends.
        bool any = false;
        for (const auto& f :
             nic::make_cutoff_filters(cmd->tuple, cmd->expires)) {
          if (nic.fdir().add(f) != 0) {
            any = true;
            continue;
          }
          ++applied.install_failures;
          SCAP_TRACE_EVENT(nic.tracer(), trace::TraceEventType::kFdirInstall,
                           0, now, 0, 2);
        }
        if (any) ++(cmd->reinstall ? applied.reinstalls : applied.installs);
        break;
      }
      case FdirCommand::Kind::kRemove:
        applied.removals +=
            nic.fdir().remove_tuple(cmd->tuple, nic::FdirAction::kDrop);
        break;
    }
  }
  return applied;
}

std::size_t expire_fdir_filters(nic::Nic& nic, Timestamp now) {
  const std::size_t expired = nic.fdir().expire(now);
  for (std::size_t i = 0; i < expired; ++i) {
    SCAP_TRACE_EVENT(nic.tracer(), trace::TraceEventType::kFdirEvict, 0, now,
                     0, 1);
  }
  return expired;
}

void ScapKernel::apply_fdir_outbox(Timestamp now) {
  const FdirApplied applied = apply_fdir_commands(*fdir_outbox_, *nic_, now);
  stats_.fdir_installs += applied.installs;
  stats_.fdir_reinstalls += applied.reinstalls;
  stats_.fdir_removals += applied.removals;
  stats_.fdir_install_failures += applied.install_failures;
}

bool ScapKernel::queue_fdir(const FdirCommand& cmd, Timestamp now) {
  if (fdir_outbox_->try_push(cmd)) return true;
  if (nic_ == nullptr) return false;
  apply_fdir_outbox(now);
  return fdir_outbox_->try_push(cmd);
}

std::uint64_t ScapKernel::app_mask_for(const FiveTuple& tuple) const {
  if (config_.app_filters.empty()) return ~0ULL;
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < config_.app_filters.size() && i < 64; ++i) {
    if (config_.app_filters[i].matches(tuple)) mask |= 1ULL << i;
  }
  return mask;
}

StreamSnapshot ScapKernel::snapshot(const StreamRecord& rec) const {
  StreamSnapshot s;
  s.id = rec.id;
  s.tuple = rec.tuple;
  s.dir = rec.dir;
  s.opposite = rec.opposite;
  s.status = rec.status;
  s.cutoff_exceeded = rec.cutoff_exceeded;
  s.error_bits = rec.error_bits;
  s.stats = rec.stats;
  s.params = rec.params;
  s.chunks_delivered = rec.chunks_delivered;
  s.processing_time = rec.processing_time;
  return s;
}

void ScapKernel::resolve_params(StreamRecord& rec) {
  rec.params = config_.defaults;
  // Cutoff resolution: class > direction > default (per-stream API calls
  // override later).
  bool class_matched = false;
  for (const auto& cls : config_.cutoff_classes) {
    if (cls.filter.matches(rec.tuple)) {
      rec.params.cutoff_bytes = cls.cutoff_bytes;
      class_matched = true;
      break;
    }
  }
  if (!class_matched) {
    const auto d = static_cast<std::size_t>(rec.dir);
    if (config_.cutoff_per_dir[d] >= 0) {
      rec.params.cutoff_bytes = config_.cutoff_per_dir[d];
    }
  }
  for (const auto& cls : config_.priority_classes) {
    if (cls.filter.matches(rec.tuple)) {
      rec.params.priority = cls.priority;
      break;
    }
  }
}

void ScapKernel::emit_created(StreamRecord& rec) {
  if (!config_.creation_events) return;
  Event ev;
  ev.type = EventType::kCreated;
  ev.stream = snapshot(rec);
  ev.app_mask = app_mask_for(rec.tuple);
  events_.push(std::move(ev));
  ++stats_.events_emitted;
}

void ScapKernel::emit_data(StreamRecord& rec, Chunk&& chunk,
                           bool transfer_block) {
#if defined(SCAP_ENABLE_TRACE)
  if (tracer_ != nullptr) {
    // Delivery happens at the stream's current packet time (last_access —
    // flush timeouts and terminations deliver at maintenance time, which
    // the caller has already folded into last_access for live streams).
    // Chunk latency is first contributing segment -> delivery, in µs.
    const std::int64_t lat_ns =
        chunk.first_ts.ns() > 0 ? (rec.last_access - chunk.first_ts).ns() : 0;
    tracer_->record(trace::TraceEventType::kChunkDelivered, 0,
                    rec.last_access, rec.id, 0,
                    static_cast<std::uint32_t>(chunk.data.size()),
                    chunk.stream_offset);
    tracer_->metrics().chunk_latency_us.add(
        lat_ns > 0 ? static_cast<std::uint64_t>(lat_ns) / 1000 : 0);
  }
#endif
  ++stats_.chunks_delivered;
  Event ev;
  ev.type = EventType::kData;
  ev.stream = snapshot(rec);
  ev.app_mask = app_mask_for(rec.tuple);
  if (transfer_block && rec.chunk_alloc != 0) {
    ev.chunk_alloc = rec.chunk_alloc;
    rec.chunk_alloc = 0;
  } else {
    // The chunk's bytes exist but no open block maps to them (e.g. the
    // second chunk completed by one large packet): force-account it.
    const auto size = static_cast<std::uint32_t>(chunk.data.size());
    if (size > 0) {
      allocator_.allocate_forced(size);
      ev.chunk_alloc = size;
    }
  }
  // A kept chunk's accounting rides along with the merged delivery.
  if (rec.kept_alloc) {
    ev.chunk_alloc += rec.kept_alloc;
    rec.kept_alloc = 0;
  }
  ev.chunk = std::move(chunk);
  rec.chunks_delivered++;
  rec.last_flush = rec.last_access;
  events_.push(std::move(ev));
  ++stats_.events_emitted;
}

void ScapKernel::emit_terminated(StreamRecord& rec) {
  SCAP_TRACE_EVENT(tracer_, trace::TraceEventType::kStreamTerminated, 0,
                   rec.last_access, rec.id,
                   static_cast<std::uint16_t>(rec.status), 0, rec.stats.bytes);
  SCAP_TRACE_METRIC(tracer_, stream_size_bytes, rec.stats.bytes);
  Event ev;
  ev.type = EventType::kTerminated;
  ev.stream = snapshot(rec);
  ev.app_mask = app_mask_for(rec.tuple);
  events_.push(std::move(ev));
  ++stats_.events_emitted;
  ++stats_.streams_terminated;
}

void ScapKernel::ensure_block(StreamRecord& rec) {
  if (rec.chunk_alloc != 0) return;
  const std::uint32_t size = rec.params.chunk_size;
  if (allocator_.allocate(size)) rec.chunk_alloc = size;
}

void ScapKernel::release_block(StreamRecord& rec) {
  allocator_.release(rec.chunk_alloc);
  rec.chunk_alloc = 0;
}

void ScapKernel::flush_chunks(StreamRecord& rec, std::uint32_t error_bits) {
  auto chunks = rec.reasm.flush(error_bits);
  bool first = true;
  for (auto& c : chunks) {
    emit_data(rec, std::move(c), first);
    first = false;
  }
}

void ScapKernel::install_fdir(StreamRecord& rec, Timestamp now, bool reinstall,
                              PacketOutcome& outcome) {
  if (!config_.use_fdir || rec.tuple.protocol != kProtoTcp) return;
  // Doubled timeout on re-install: long-lived flows are evicted only
  // O(log) times.
  rec.fdir_timeout = reinstall ? rec.fdir_timeout + rec.fdir_timeout
                               : config_.fdir_base_timeout;
  rec.fdir_expires = now + rec.fdir_timeout;
  FdirCommand cmd;
  cmd.kind = FdirCommand::Kind::kInstallCutoff;
  cmd.tuple = rec.tuple;
  cmd.expires = rec.fdir_expires;
  cmd.reinstall = reinstall;
  const bool queued = queue_fdir(cmd, now);
  if (queued) {
    rec.fdir_installed = true;
    outcome.fdir_updates += static_cast<int>(nic::kCutoffFilters);
  } else {
    // Outbox full: none of the filters reaches the NIC.
    stats_.fdir_install_failures += nic::kCutoffFilters;
  }
  SCAP_TRACE_EVENT(
      tracer_, trace::TraceEventType::kFdirInstall, 0, now, rec.id,
      static_cast<std::uint16_t>(queued ? (reinstall ? 1 : 0) : 2));
}

void ScapKernel::trigger_cutoff(StreamRecord& rec, Timestamp now,
                                PacketOutcome& outcome) {
  if (rec.cutoff_exceeded) return;
  rec.cutoff_exceeded = true;
  // Final data event for whatever the stream accumulated (paper §5.4: a
  // final chunk event is created when the cutoff is reached).
  flush_chunks(rec, 0);
  release_block(rec);
  install_fdir(rec, now, /*reinstall=*/false, outcome);
}

void ScapKernel::close_stream(StreamRecord& rec, StreamStatus status,
                              Timestamp now) {
  rec.status = status;
  flush_chunks(rec, 0);
  release_block(rec);
  allocator_.release(rec.kept_alloc);
  rec.kept_alloc = 0;
  if (rec.fdir_installed) {
    FdirCommand cmd;
    cmd.kind = FdirCommand::Kind::kRemove;
    cmd.tuple = rec.tuple;
    // A dropped removal leaves the filters to their timeout.
    (void)queue_fdir(cmd, now);
    rec.fdir_installed = false;
    SCAP_TRACE_EVENT(tracer_, trace::TraceEventType::kFdirEvict, 0, now,
                     rec.id, 0);
  }
  flush_watch_.erase(rec.id);
  emit_terminated(rec);
}

void ScapKernel::terminate(StreamRecord& rec, StreamStatus status,
                           Timestamp now, PacketOutcome* outcome) {
  close_stream(rec, status, now);
  if (outcome) outcome->terminated_stream = true;
  table_.remove(rec);
}

StreamRecord* ScapKernel::lookup_or_create(const Packet& pkt,
                                           std::uint64_t hash, Timestamp now,
                                           PacketOutcome& outcome) {
  StreamRecord* rec = table_.find(pkt.tuple(), hash);
  SCAP_TRACE_METRIC(tracer_, flow_probe_len, table_.last_probe_len());
  if (rec != nullptr) return rec;

  // Only create streams for packets that begin or carry a flow: SYN, any
  // payload, or a UDP/other-protocol packet. FIN/RST/pure-ACKs for unknown
  // streams are ignored.
  const bool tcp = pkt.is_tcp();
  if (tcp && pkt.payload_len() == 0 && !pkt.has_flag(kTcpSyn)) return nullptr;

  rec = table_.create(pkt.tuple(), hash, now, [&](StreamRecord& victim) {
    // Record budget exhausted: the oldest stream makes way (paper §6.4).
    terminate(victim, StreamStatus::kClosedTimeout, now, nullptr);
    ++stats_.streams_evicted;
  });
  if (rec == nullptr) {
    // Record allocation failed (fault injection): the packet is dropped
    // with its own counter, not mistaken for an uninteresting control
    // packet.
    ++stats_.pkts_norec_dropped;
    outcome.verdict = Verdict::kNoRecordDrop;
    return nullptr;
  }

  rec->stats.first_packet = now;

  // Direction + opposite linkage (must precede parameter resolution: the
  // per-direction cutoff depends on it).
  StreamRecord* opp = table_.find(pkt.tuple().reversed());
  if (opp != nullptr) {
    rec->dir = opp->dir == Direction::kOrig ? Direction::kReply
                                            : Direction::kOrig;
    rec->opposite = opp->id;
    opp->opposite = rec->id;
  } else {
    rec->dir = Direction::kOrig;
  }

  resolve_params(*rec);
  // The reassembler lives in the record slot: reset it in place (a
  // recycled slot keeps its grown buffers) and bind the chunk allocator.
  rec->reasm.reset(rec->params, config_.need_pkts,
                   TcpReassembler::kDefaultMaxOooBytes, &allocator_);
  // scap-lint: allow(hot-alloc) flush-watch set grows only for streams configured with flush timeouts (DESIGN.md §14 inventory)
  if (rec->params.flush_timeout > Duration(0)) flush_watch_.insert(rec->id);

  ++stats_.streams_created;
  // Traced here, not in emit_created: creation events are configurable but
  // the trace law count(stream_created) == streams_created is not. The
  // a16 field is the core, always 0 for a one-core kernel.
  SCAP_TRACE_EVENT(tracer_, trace::TraceEventType::kStreamCreated, 0, now,
                   rec->id, 0,
                   static_cast<std::uint32_t>(rec->params.priority));
  outcome.created_stream = true;
  outcome.opposite = rec->opposite;
  emit_created(*rec);
  return rec;
}

void ScapKernel::handle_payload(StreamRecord& rec, const Packet& pkt,
                                Timestamp now, PacketOutcome& outcome) {
  std::span<const std::uint8_t> payload = pkt.payload();
  rec.stats.pkts++;
  rec.stats.bytes += pkt.wire_payload_len();

  // A pending flush deadline fires before the new bytes are appended — the
  // asynchronous timer would have delivered the partial chunk already.
  if (rec.params.flush_timeout > Duration(0) &&
      now - rec.last_flush >= rec.params.flush_timeout &&
      rec.reasm.builder().has_data()) {
    flush_chunks(rec, 0);
    rec.last_flush = now;
  }

  if (rec.discard_requested || rec.cutoff_exceeded) {
    rec.stats.discarded_pkts++;
    rec.stats.discarded_bytes += pkt.wire_payload_len();
    stats_.pkts_cutoff++;
    stats_.bytes_cutoff += pkt.wire_payload_len();
    outcome.verdict = Verdict::kCutoffDiscard;
    // The filter lifetime the kernel asked for has passed but the stream
    // still lives: re-install with a doubled timeout (paper §5.5). This
    // also retries filters the NIC rejected or the outbox dropped.
    if (rec.cutoff_exceeded && config_.use_fdir && !rec.discard_requested &&
        now >= rec.fdir_expires) {
      install_fdir(rec, now, /*reinstall=*/true, outcome);
    }
    return;
  }

  // Stream offset of this payload (cutoff & PPL decisions).
  std::uint64_t off = 0;
  if (pkt.is_tcp()) {
    off = rec.reasm.offset_of(pkt.seq()).value_or(0);
  } else {
    off = rec.reasm.stream_offset();
  }

  // Cutoff enforcement (paper §2.1).
  const std::int64_t cutoff = rec.params.cutoff_bytes;
  if (cutoff >= 0) {
    if (off >= static_cast<std::uint64_t>(cutoff)) {
      rec.stats.discarded_pkts++;
      rec.stats.discarded_bytes += pkt.wire_payload_len();
      stats_.pkts_cutoff++;
      stats_.bytes_cutoff += pkt.wire_payload_len();
      outcome.verdict = Verdict::kCutoffDiscard;
      trigger_cutoff(rec, now, outcome);
      return;
    }
    if (off + payload.size() > static_cast<std::uint64_t>(cutoff)) {
      // Deliver only the prefix up to the cutoff.
      payload = payload.first(static_cast<std::size_t>(
          static_cast<std::uint64_t>(cutoff) - off));
    }
  }

  // Prioritized packet loss (paper §2.2).
  const PplVerdict ppl =
      ppl_.admit(allocator_.used_fraction(), rec.params.priority, off);
  if (ppl != PplVerdict::kAdmit) {
    rec.stats.dropped_pkts++;
    rec.stats.dropped_bytes += pkt.wire_payload_len();
    stats_.pkts_ppl_dropped++;
    stats_.bytes_ppl_dropped += pkt.wire_payload_len();
    outcome.verdict = Verdict::kPplDrop;
    return;
  }

  ensure_block(rec);
  if (rec.chunk_alloc == 0) {
    // Chunk buffer exhausted and PPL admitted anyway (e.g. base threshold
    // 1.0): the packet is lost here, like a full ring.
    rec.stats.dropped_pkts++;
    rec.stats.dropped_bytes += pkt.wire_payload_len();
    stats_.pkts_nomem_dropped++;
    stats_.bytes_nomem_dropped += pkt.wire_payload_len();
    outcome.verdict = Verdict::kNoMemDrop;
    return;
  }

  SegmentMeta meta;
  meta.ts = now;
  meta.seq_raw = pkt.seq();
  meta.tcp_flags = pkt.tcp_flags();
  meta.wire_payload = pkt.wire_payload_len();

  TcpReassembler::Result result =
      pkt.is_tcp() ? rec.reasm.on_data(pkt.seq(), payload, meta)
                   : rec.reasm.on_datagram(payload, meta);

  rec.error_bits |= result.errors;
  if (result.alloc_failed) {
    // Out-of-order buffering failed to allocate: the segment is dropped
    // with its own counter; the stream survives (flagged kErrBufferOverflow
    // by the reassembler).
    rec.stats.dropped_pkts++;
    rec.stats.dropped_bytes += pkt.wire_payload_len();
    stats_.reasm_alloc_failures++;
    stats_.pkts_nomem_dropped++;
    stats_.bytes_nomem_dropped += pkt.wire_payload_len();
    outcome.verdict = Verdict::kNoMemDrop;
    return;
  }
  rec.stats.captured_bytes += result.accepted_bytes;
  rec.stats.discarded_bytes += result.dup_bytes;
  if (result.accepted_bytes > 0) {
    rec.stats.captured_pkts++;
    stats_.pkts_stored++;
    stats_.bytes_stored += result.accepted_bytes;
    outcome.verdict = Verdict::kStored;
    outcome.stored_bytes = result.accepted_bytes;
  } else if (result.dup_bytes > 0) {
    rec.stats.discarded_pkts++;
    stats_.pkts_dup++;
    stats_.bytes_dup += result.dup_bytes;
    outcome.verdict = Verdict::kDupDiscard;
  } else {
    // Nothing delivered and nothing duplicated: the reassembler holds the
    // segment out of order (or the payload was empty). Counted separately
    // from control packets so the conservation law stays exact.
    stats_.pkts_buffered++;
    outcome.verdict = Verdict::kBuffered;
  }

  bool first = true;
  for (auto& chunk : result.completed) {
    emit_data(rec, std::move(chunk), first);
    first = false;
  }
  if (!result.completed.empty() && rec.reasm.builder().has_data()) {
    ensure_block(rec);
  }

  // Cutoff reached exactly with this packet's bytes.
  if (cutoff >= 0 &&
      rec.reasm.stream_offset() >= static_cast<std::uint64_t>(cutoff)) {
    trigger_cutoff(rec, now, outcome);
  }

}

PacketOutcome ScapKernel::handle_packet(const Packet& pkt, Timestamp now,
                                        int core) {
  SCAP_ASSERT(core == 0, "a kernel serves one core");
  if (now - last_maintenance_ >= config_.expiry_interval) {
    // scap-lint: allow(hot-cold-call) amortized maintenance tick: at most once per expiry_interval, not per packet
    run_maintenance(now);
  }
  const PacketOutcome out = handle_one(pkt, table_.hash_of(pkt.tuple()), now);
  ++stats_.verdicts[static_cast<std::size_t>(out.verdict)];
  SCAP_TRACE_EVENT(tracer_, trace::TraceEventType::kPacketVerdict, 0, now,
                   out.stream_id, static_cast<std::uint16_t>(out.verdict),
                   pkt.wire_len());
  if (owns_fdir()) apply_fdir_outbox(now);
  return out;
}

PacketOutcome ScapKernel::handle_batch(std::span<const Packet* const> pkts,
                                       Timestamp now,
                                       std::span<PacketOutcome> outcomes) {
  // One maintenance-timer check per batch instead of per packet.
  if (now - last_maintenance_ >= config_.expiry_interval) {
    // scap-lint: allow(hot-cold-call) amortized maintenance tick: at most once per expiry_interval, not per batch element
    run_maintenance(now);
  }
  PacketOutcome total;
  process_batch(pkts, outcomes, total);
  if (owns_fdir()) apply_fdir_outbox(now);
  return total;
}

PacketOutcome ScapKernel::handle_batch(std::span<const Packet> pkts,
                                       Timestamp now, int core,
                                       std::span<PacketOutcome> outcomes) {
  SCAP_ASSERT(core == 0, "a kernel serves one core");
  if (now - last_maintenance_ >= config_.expiry_interval) {
    // scap-lint: allow(hot-cold-call) amortized maintenance tick: at most once per expiry_interval, not per batch element
    run_maintenance(now);
  }
  // Point at the packets a stack chunk at a time: the same per-packet
  // path as the pointer batch, allocating nothing.
  PacketOutcome total;
  std::array<const Packet*, 32> ptrs{};
  for (std::size_t i = 0; i < pkts.size(); i += ptrs.size()) {
    const std::size_t n = std::min(ptrs.size(), pkts.size() - i);
    for (std::size_t j = 0; j < n; ++j) ptrs[j] = &pkts[i + j];
    process_batch(std::span<const Packet* const>(ptrs.data(), n),
                  outcomes.empty() ? outcomes : outcomes.subspan(i, n), total);
  }
  if (owns_fdir()) apply_fdir_outbox(now);
  return total;
}

void ScapKernel::process_batch(std::span<const Packet* const> pkts,
                               std::span<PacketOutcome> outcomes,
                               PacketOutcome& total) {
  // Each tuple is hashed once, two packets ahead of its lookup: the hash
  // pulls the probe window into cache while the packets before it are
  // processed, then keys the lookup itself. ahead[j % 4] holds packet j's.
  std::array<std::uint64_t, 4> ahead{};
  const auto stage = [&](std::size_t j) {
    ahead[j % 4] = table_.hash_of(pkts[j]->tuple());
    table_.prefetch(ahead[j % 4]);
  };
  for (std::size_t j = 0; j < 2 && j < pkts.size(); ++j) stage(j);
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    if (i + 2 < pkts.size()) stage(i + 2);
    const Packet& pkt = *pkts[i];
    const PacketOutcome out = handle_one(pkt, ahead[i % 4], pkt.timestamp());
    ++stats_.verdicts[static_cast<std::size_t>(out.verdict)];
    SCAP_TRACE_EVENT(tracer_, trace::TraceEventType::kPacketVerdict, 0,
                     pkt.timestamp(), out.stream_id,
                     static_cast<std::uint16_t>(out.verdict), pkt.wire_len());
    if (!outcomes.empty()) outcomes[i] = out;
    total.verdict = out.verdict;
    total.stored_bytes += out.stored_bytes;
    total.events += out.events;
    total.created_stream = total.created_stream || out.created_stream;
    total.terminated_stream = total.terminated_stream || out.terminated_stream;
    total.fdir_updates += out.fdir_updates;
  }
}

PacketOutcome ScapKernel::handle_one(const Packet& pkt, std::uint64_t hash,
                                     Timestamp now) {
  PacketOutcome outcome;
  ++stats_.pkts_seen;
  stats_.bytes_seen += pkt.wire_len();

  if (!pkt.valid()) {
    ++stats_.pkts_invalid;
    ++stats_.parse_errors[static_cast<std::size_t>(pkt.decode_error())];
    outcome.verdict = Verdict::kInvalid;
    return outcome;
  }
  if (config_.verify_checksums && !verify_checksums(pkt.frame())) {
    ++stats_.pkts_bad_checksum;
    outcome.verdict = Verdict::kChecksumDrop;
    return outcome;
  }
  // IPv4 defragmentation before stream processing (§2.3).
  Packet reassembled_frag;
  const Packet* effective = &pkt;
  if (config_.defragment_ip && pkt.is_ip_fragment()) {
    auto done = defrag_.feed(pkt, now);
    if (!done.has_value()) {
      ++stats_.pkts_frag_held;
      outcome.verdict = Verdict::kFragmentHeld;
      return outcome;
    }
    reassembled_frag = std::move(*done);
    effective = &reassembled_frag;
    hash = table_.hash_of(effective->tuple());
    if (!effective->valid()) {
      ++stats_.pkts_invalid;
      ++stats_.parse_errors[static_cast<std::size_t>(
          effective->decode_error())];
      outcome.verdict = Verdict::kInvalid;
      return outcome;
    }
  }
  const Packet& pkt2 = *effective;
  return handle_decoded(pkt2, hash, now, outcome);
}

PacketOutcome ScapKernel::handle_decoded(const Packet& pkt, std::uint64_t hash,
                                         Timestamp now,
                                         PacketOutcome& outcome) {
  if (!config_.filter.matches(pkt.tuple())) {
    ++stats_.pkts_filtered;
    outcome.verdict = Verdict::kFilteredBpf;
    return outcome;
  }
  // Shared capture (§5.6): keep a stream only if at least one attached
  // application wants it.
  if (!config_.app_filters.empty() && app_mask_for(pkt.tuple()) == 0) {
    ++stats_.pkts_filtered;
    outcome.verdict = Verdict::kFilteredBpf;
    return outcome;
  }

  // A nullptr keeps whatever verdict lookup_or_create set (kNoRecordDrop on
  // allocation failure, the default kIgnored for FIN/RST of unknown flows).
  StreamRecord* rec = lookup_or_create(pkt, hash, now, outcome);
  if (rec == nullptr) {
    if (outcome.verdict == Verdict::kIgnored) ++stats_.pkts_ignored;
    return outcome;
  }
  outcome.stream_id = rec->id;
  table_.touch(*rec, now);
  rec->stats.last_packet = now;

  if (pkt.is_tcp()) {
    // Handshake tracking.
    if (pkt.has_flag(kTcpSyn)) {
      rec->reasm.on_syn(pkt.seq());
      rec->handshake = pkt.has_flag(kTcpAck) ? HandshakeState::kSynAckSeen
                                             : HandshakeState::kSynSeen;
      rec->stats.pkts++;
      ++stats_.pkts_control;
      outcome.verdict = Verdict::kControl;
      return outcome;
    }
    if (rec->handshake == HandshakeState::kSynSeen &&
        pkt.has_flag(kTcpAck)) {
      StreamRecord* opp = table_.by_id(rec->opposite);
      if (opp && opp->handshake == HandshakeState::kSynAckSeen) {
        rec->handshake = HandshakeState::kEstablished;
        opp->handshake = HandshakeState::kEstablished;
      }
    }
    if (pkt.payload_len() > 0 &&
        rec->handshake == HandshakeState::kNone &&
        !(rec->error_bits & kErrIncompleteHandshake)) {
      rec->error_bits |= kErrIncompleteHandshake;
    }

    if (pkt.payload_len() > 0) {
      handle_payload(*rec, pkt, now, outcome);
    } else if (!pkt.has_flag(kTcpFin) && !pkt.has_flag(kTcpRst)) {
      rec->stats.pkts++;
      ++stats_.pkts_control;
      outcome.verdict = Verdict::kControl;
    }

    if (pkt.has_flag(kTcpRst) || pkt.has_flag(kTcpFin)) {
      if (pkt.payload_len() == 0) {
        rec->stats.pkts++;
        ++stats_.pkts_control;
      }
      if (outcome.verdict == Verdict::kIgnored) {
        outcome.verdict = Verdict::kControl;
      }
      // Flow statistics for NIC-offloaded streams: the FIN/RST sequence
      // number reveals how many bytes the NIC dropped (paper §5.5).
      if (rec->cutoff_exceeded) {
        if (auto total = rec->reasm.offset_of(pkt.seq())) {
          rec->stats.bytes = std::max(rec->stats.bytes, *total);
        }
      }
      const StreamStatus status = pkt.has_flag(kTcpRst)
                                      ? StreamStatus::kClosedRst
                                      : StreamStatus::kClosedFin;
      // RST kills both directions; FIN closes only this one.
      if (pkt.has_flag(kTcpRst)) {
        StreamRecord* opp = table_.by_id(rec->opposite);
        if (opp != nullptr) terminate(*opp, status, now, nullptr);
      }
      terminate(*rec, status, now, &outcome);
      return outcome;
    }
    return outcome;
  }

  // UDP and other IP protocols.
  if (pkt.payload_len() > 0 || !pkt.is_udp()) {
    if (rec->params.mode == ReassemblyMode::kNone || !pkt.is_udp()) {
      // Packet-oriented delivery: every packet becomes its own chunk.
      handle_payload(*rec, pkt, now, outcome);
      if (rec->reasm.builder().has_data()) flush_chunks(*rec, 0);
    } else {
      handle_payload(*rec, pkt, now, outcome);
    }
  } else {
    rec->stats.pkts++;
    // Zero-payload UDP keepalives previously set the control verdict
    // without the control counter — invisible to the accounting (found by
    // the conservation checker).
    ++stats_.pkts_control;
    outcome.verdict = Verdict::kControl;
  }
  return outcome;
}

void ScapKernel::run_maintenance(Timestamp now) {
  last_maintenance_ = now;

  SCAP_TRACE_EVENT(tracer_, trace::TraceEventType::kMaintenanceTick, 0, now,
                   0, 0, static_cast<std::uint32_t>(table_.size()),
                   allocator_.used());
#if defined(SCAP_ENABLE_TRACE)
  if (tracer_ != nullptr) {
    // Event-queue backlog distribution, sampled at the deterministic
    // maintenance cadence (one sample per tick).
    tracer_->metrics().queue_occupancy.add(events_.size());
  }
#endif

  // Feed the adaptive overload controller one pressure sample per
  // maintenance tick: deterministic cadence, off the per-packet path.
  ppl_.observe(allocator_.used_fraction(), now);

  if (config_.defragment_ip) defrag_.expire(now);

  // Inactivity expiry, oldest first (paper §5.2).
  table_.expire_idle(now, [&](StreamRecord& rec) {
    close_stream(rec, StreamStatus::kClosedTimeout, now);
  });

  // FDIR filter timeouts (paper §5.5): the stream may still be alive; its
  // next cutoff discard re-installs with a doubled timeout.
  if (owns_fdir() && config_.use_fdir) {
    apply_fdir_outbox(now);
    stats_.fdir_removals += expire_fdir_filters(*nic_, now);
  }

  // Flush timeouts for streams that asked for timely delivery.
  // In place: flush_chunks only emits events, it never touches the set.
  for (auto it = flush_watch_.begin(); it != flush_watch_.end();) {
    StreamRecord* rec = table_.by_id(*it);
    if (rec == nullptr) {
      it = flush_watch_.erase(it);
      continue;
    }
    if (now - rec->last_flush >= rec->params.flush_timeout &&
        rec->reasm.builder().has_data()) {
      flush_chunks(*rec, 0);
      rec->last_flush = now;
    }
    ++it;
  }

  // Every maintenance tick re-proves the accounting laws (fatal in
  // Debug/test builds, compiled out in Release) — a mis-counted drop is
  // caught within one expiry interval of the packet that caused it.
  SCAP_INVARIANT_REPORT(check_invariants());
}

void ScapKernel::terminate_all(Timestamp now) {
  while (StreamRecord* rec = table_.oldest()) {
    terminate(*rec, StreamStatus::kClosedTimeout, now, nullptr);
  }
  if (owns_fdir()) apply_fdir_outbox(now);
  SCAP_INVARIANT_REPORT(check_invariants());
}

bool ScapKernel::set_stream_cutoff(StreamId id, std::int64_t cutoff) {
  StreamRecord* rec = table_.by_id(id);
  if (rec == nullptr) return false;
  rec->params.cutoff_bytes = cutoff;
  return true;
}

bool ScapKernel::set_stream_priority(StreamId id, int priority) {
  StreamRecord* rec = table_.by_id(id);
  if (rec == nullptr) return false;
  rec->params.priority = priority;
  return true;
}

bool ScapKernel::keep_stream_chunk(StreamId id, Chunk&& chunk,
                                   std::uint32_t alloc) {
  StreamRecord* rec = table_.by_id(id);
  if (rec == nullptr) return false;
  rec->reasm.builder().retain(std::move(chunk));
  rec->kept_alloc += alloc;
  return true;
}

bool ScapKernel::discard_stream(StreamId id) {
  StreamRecord* rec = table_.by_id(id);
  if (rec == nullptr) return false;
  rec->discard_requested = true;
  release_block(*rec);
  return true;
}

}  // namespace scap::kernel
