#include "scap/capture.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "base/assert.hpp"
#include "packet/pcap.hpp"

namespace scap {

// --- StreamView --------------------------------------------------------------
//
// Control methods run inside dispatch callbacks, which always hold the
// owning kernel's serial domain (see class comment in the header);
// assert_serial() states that to the analysis.

void StreamView::discard() {
  assert_serial();
  k_.discard_stream(id());
}

void StreamView::set_cutoff(std::int64_t bytes) {
  assert_serial();
  k_.set_stream_cutoff(id(), bytes);
}

void StreamView::set_priority(int priority) {
  assert_serial();
  k_.set_stream_priority(id(), priority);
}

bool StreamView::set_parameter(Parameter p, std::int64_t value) {
  assert_serial();
  kernel::StreamRecord* rec = k_.find_stream(id());
  if (rec == nullptr) return false;
  switch (p) {
    case Parameter::kInactivityTimeoutMs:
      rec->params.inactivity_timeout = Duration::from_msec(value);
      return true;
    case Parameter::kChunkSize:
      rec->params.chunk_size = static_cast<std::uint32_t>(value);
      rec->reasm.builder().set_chunk_size(static_cast<std::uint32_t>(value));
      return true;
    case Parameter::kOverlapSize:
      rec->params.overlap_size = static_cast<std::uint32_t>(value);
      rec->reasm.builder().set_overlap_size(static_cast<std::uint32_t>(value));
      return true;
    case Parameter::kFlushTimeoutMs:
      rec->params.flush_timeout = Duration::from_msec(value);
      return true;
    // Capture-wide parameters are not per-stream.
    case Parameter::kBaseThresholdPercent:
    case Parameter::kOverloadCutoff:
    case Parameter::kPriorityLevels:
    case Parameter::kAdaptiveCutoff:
    case Parameter::kAdaptiveMinCutoff:
    case Parameter::kWorkerThreads:
    case Parameter::kShardRingCapacity:
    case Parameter::kRingHighWatermarkPct:
    case Parameter::kRingLowWatermarkPct:
    case Parameter::kStallTimeoutMs:
    case Parameter::kStallPolicy:
      return false;
  }
  return false;
}

void StreamView::keep_chunk() { keep_requested_ = true; }

const kernel::PacketRecord* StreamView::next_packet() {
  if (pkt_cursor_ >= ev_.chunk.packets.size()) return nullptr;
  return &ev_.chunk.packets[pkt_cursor_++];
}

std::span<const std::uint8_t> StreamView::packet_payload(
    const kernel::PacketRecord& rec) const {
  if (rec.chunk_offset + rec.caplen > ev_.chunk.data.size()) return {};
  return std::span<const std::uint8_t>(ev_.chunk.data)
      .subspan(rec.chunk_offset, rec.caplen);
}

// --- Capture -------------------------------------------------------------------

Capture::Capture(std::string device, std::uint64_t memory_size,
                 kernel::ReassemblyMode mode, bool need_pkts)
    : device_(std::move(device)) {
  config_.memory_size = memory_size;
  config_.defaults.mode = mode;
  config_.need_pkts = need_pkts;
}

Capture::~Capture() {
  if (started_) stop();
}

void Capture::set_filter(const std::string& bpf) {
  config_.filter = BpfProgram::compile(bpf);
}

void Capture::set_cutoff(std::int64_t bytes) {
  config_.defaults.cutoff_bytes = bytes;
}

void Capture::add_cutoff_direction(std::int64_t bytes, kernel::Direction dir) {
  config_.cutoff_per_dir[static_cast<int>(dir)] = bytes;
}

void Capture::add_cutoff_class(std::int64_t bytes, const std::string& bpf) {
  kernel::CutoffClass cls;
  cls.filter = BpfProgram::compile(bpf);
  cls.cutoff_bytes = bytes;
  config_.cutoff_classes.push_back(std::move(cls));
}

void Capture::set_worker_threads(int n) { worker_threads_ = n < 0 ? 0 : n; }

bool Capture::set_parameter(Parameter p, std::int64_t value) {
  switch (p) {
    case Parameter::kInactivityTimeoutMs:
      config_.defaults.inactivity_timeout = Duration::from_msec(value);
      return true;
    case Parameter::kChunkSize:
      config_.defaults.chunk_size = static_cast<std::uint32_t>(value);
      return true;
    case Parameter::kOverlapSize:
      config_.defaults.overlap_size = static_cast<std::uint32_t>(value);
      return true;
    case Parameter::kFlushTimeoutMs:
      config_.defaults.flush_timeout = Duration::from_msec(value);
      return true;
    case Parameter::kBaseThresholdPercent:
      config_.ppl.base_threshold = static_cast<double>(value) / 100.0;
      return true;
    case Parameter::kOverloadCutoff:
      config_.ppl.overload_cutoff = value;
      return true;
    case Parameter::kPriorityLevels:
      config_.ppl.priority_levels = static_cast<int>(value);
      return true;
    case Parameter::kAdaptiveCutoff:
      // value > 0 enables the EWMA/hysteresis controller with this starting
      // cutoff; 0 disables it (back to the static overload cutoff).
      config_.ppl.adaptive = value > 0;
      if (value > 0) config_.ppl.start_cutoff = value;
      return true;
    case Parameter::kAdaptiveMinCutoff:
      if (value <= 0) return false;
      config_.ppl.min_cutoff = value;
      return true;
    case Parameter::kWorkerThreads:
      if (started_ || value < 0) return false;
      set_worker_threads(static_cast<int>(value));
      return true;
    case Parameter::kShardRingCapacity:
      if (started_ || value <= 0) return false;
      set_shard_ring_capacity(static_cast<std::size_t>(value));
      return true;
    case Parameter::kRingHighWatermarkPct:
      if (started_ || value < 0 || value > 100) return false;
      {
        base::MutexLock lock(producer_mutex_);
        ring_policy_.high_watermark_pct = static_cast<int>(value);
      }
      return true;
    case Parameter::kRingLowWatermarkPct:
      if (started_ || value < 0 || value > 100) return false;
      {
        base::MutexLock lock(producer_mutex_);
        ring_policy_.low_watermark_pct = static_cast<int>(value);
      }
      return true;
    case Parameter::kStallTimeoutMs:
      if (started_ || value < 0) return false;
      {
        base::MutexLock lock(producer_mutex_);
        ring_policy_.stall_timeout_ms = value;
      }
      return true;
    case Parameter::kStallPolicy:
      if (started_ || (value != 0 && value != 1)) return false;
      {
        base::MutexLock lock(producer_mutex_);
        ring_policy_.stall_policy = value == 0 ? kernel::StallPolicy::kFatal
                                               : kernel::StallPolicy::kDegrade;
      }
      return true;
  }
  return false;
}

int Capture::add_application(const std::string& bpf_filter,
                             AppHandlers handlers) {
  if (started_) throw std::logic_error("scap: capture already started");
  if (apps_.size() >= 64) throw std::length_error("scap: too many apps");
  config_.app_filters.push_back(BpfProgram::compile(bpf_filter));
  apps_.push_back(std::move(handlers));
  return static_cast<int>(apps_.size() - 1);
}

void Capture::dispatch_creation(StreamHandler handler) {
  on_created_ = std::move(handler);
}
void Capture::dispatch_data(StreamHandler handler) {
  on_data_ = std::move(handler);
}
void Capture::dispatch_termination(StreamHandler handler) {
  on_terminated_ = std::move(handler);
}

void Capture::enable_tracing(std::size_t ring_capacity) {
  if (started_) throw std::logic_error("scap: capture already started");
  trace_capacity_ = ring_capacity > 0 ? ring_capacity : 1;
}

void Capture::start() {
  if (started_) throw std::logic_error("scap: capture already started");
  const int n = std::max(worker_threads_, 1);
  kernel::KernelShards::Options opts;  // the threaded shards' ring policy
  opts.ring_capacity = ring_capacity_;
  base::MutexLock plock(producer_mutex_);
  if (ring_policy_.high_watermark_pct > 0) {
    // Translate the staged percentages into slots of the ring's real
    // (power-of-two-rounded) capacity, so "high = 100%" means exactly
    // full and the hysteresis band is what the caller asked for.
    std::size_t cap = 1;
    while (cap < ring_capacity_) cap <<= 1;
    std::size_t high =
        cap * static_cast<std::size_t>(ring_policy_.high_watermark_pct) / 100;
    if (high == 0) high = 1;
    std::size_t low =
        cap * static_cast<std::size_t>(ring_policy_.low_watermark_pct) / 100;
    if (low > high) low = high;
    opts.ring_high_watermark = high;
    opts.ring_low_watermark = low;
  }
  opts.stall_timeout = Duration::from_msec(ring_policy_.stall_timeout_ms);
  opts.stall_policy = ring_policy_.stall_policy;
  nic::Nic* nic = nullptr;
  {
    // The NIC (and the capture tracer) are producer-owned: one RSS queue
    // per shard, same symmetric key as the shards' own steering, so a
    // packet's RX queue *is* its shard index.
    base::MutexLock lock(kernel_mutex_);
    nic_ = std::make_unique<nic::Nic>(n);
    nic = nic_.get();
    if (trace_capacity_ > 0) {
      trace::TraceConfig tc;
      tc.ring_capacity = trace_capacity_;
      tc.cores = n;
      tracer_ = std::make_unique<trace::Tracer>(tc);
      nic_->set_tracer(tracer_.get());
      opts.trace = tc;
    }
  }
  // Built outside kernel_mutex_, which must never be taken before a shard
  // lock (a callback holding its shard's lock may call stats()). Without
  // workers this thread owns NIC and shard alike: the shard kernel owns
  // the NIC, applies its own FDIR outbox and records on the capture tracer.
  shards_ = worker_threads_ > 0
                ? std::make_unique<kernel::KernelShards>(config_,
                                                         worker_threads_, opts)
                : std::make_unique<kernel::KernelShards>(config_, *nic,
                                                         tracer_.get());
  base::SerialGuard prod(shards_->producer());
  shards_->start([this](int, kernel::ScapKernel& k) {
    // Event drain on the shard's consumer, which serializes the kernel
    // (batch lock); re-assert that for the analysis.
    base::SerialGuard serial(k.serial());
    auto& q = k.events();
    while (!q.empty()) {
      kernel::Event ev = q.pop();
      dispatch_event_on(k, ev);
    }
  });
  // A run is at most one inject_batch call: sized for a stage window up
  // front, the staging vectors do not grow for callers that batch by 32
  // (replay_pcap) and otherwise grow only to the largest batch.
  staged_.reserve(kStageWindow);
  staged_queues_.reserve(kStageWindow);
  started_ = true;
}

void Capture::dispatch_event_on(kernel::ScapKernel& k, kernel::Event& ev) {
#if defined(SCAP_ENABLE_TRACE)
  if (trace::Tracer* tracer = k.tracer(); tracer != nullptr) {
    // Dispatch is traced at the stream's last packet time — the simulated
    // clock of the event's cause — so the trace stays a pure function of
    // the input, independent of worker scheduling.
    const Timestamp ts =
        ev.stream.stats.last_packet.ns() >= ev.stream.stats.first_packet.ns()
            ? ev.stream.stats.last_packet
            : ev.stream.stats.first_packet;
    tracer->record(trace::TraceEventType::kEventDispatched, /*core=*/0, ts,
                   ev.stream.id, static_cast<std::uint16_t>(ev.type),
                   static_cast<std::uint32_t>(ev.chunk.data.size()));
  }
#endif
  StreamView view(k, ev);
  if (apps_.empty()) {
    StreamHandler* handler = nullptr;
    switch (ev.type) {
      case kernel::EventType::kCreated: handler = &on_created_; break;
      case kernel::EventType::kData: handler = &on_data_; break;
      case kernel::EventType::kTerminated: handler = &on_terminated_; break;
    }
    if (handler && *handler) (*handler)(view);
  } else {
    // Shared capture: every application whose filter matched this stream
    // sees the same reassembled chunk — one kernel reassembly, N readers.
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      if ((ev.app_mask & (1ULL << i)) == 0) continue;
      StreamHandler* handler = nullptr;
      switch (ev.type) {
        case kernel::EventType::kCreated:
          handler = &apps_[i].on_created;
          break;
        case kernel::EventType::kData:
          handler = &apps_[i].on_data;
          break;
        case kernel::EventType::kTerminated:
          handler = &apps_[i].on_terminated;
          break;
      }
      view.rewind_packets();
      if (handler && *handler) (*handler)(view);
    }
  }
  events_dispatched_.fetch_add(1, std::memory_order_relaxed);
  if (ev.type == kernel::EventType::kData && view.keep_requested_ &&
      k.keep_stream_chunk(ev.stream.id, std::move(ev.chunk), ev.chunk_alloc)) {
    // scap_keep_stream_chunk: the chunk and its accounting went back to the
    // stream.
    ev.chunk_alloc = 0;
    return;
  }
  // Bytes and budget go back to the kernel: the chunk is gone from here on
  // (a kept chunk whose stream vanished is released too).
  k.release_chunk(ev);
}

void Capture::advance_ticks(Timestamp now) {
  if (!ticks_started_) {
    // Anchor the tick grid at the first host-bound packet's timestamp and
    // push the first marker immediately: every shard's last-maintenance
    // clock is then a pure function of the input timestamps, whatever the
    // shard count — the property the bit-for-bit conservation tests rely
    // on.
    ticks_started_ = true;
    last_tick_ = now;
    shards_->tick_all(now);
  }
  while (tick_due(now)) {
    last_tick_ = last_tick_ + config_.expiry_interval;
    shards_->tick_all(last_tick_);
  }
  // Same cadence for the FDIR crossing: apply the worker shards' outboxes
  // to the NIC and expire hardware filters (a no-op with zero workers,
  // whose shard kernel owns the NIC).
  base::MutexLock lock(kernel_mutex_);
  shards_->service_fdir(*nic_, last_tick_);
}

void Capture::inject(const Packet& pkt) {
  inject_batch(std::span<const Packet>(&pkt, 1));
}

void Capture::inject_batch(std::span<const Packet> pkts) {
  if (!started_) throw std::logic_error("scap: capture not started");
  if (pkts.empty()) return;
  base::MutexLock plock(producer_mutex_);
  base::SerialGuard prod(shards_->producer());
  last_ts_ = pkts.back().timestamp();
  // FDIR probe hashes of the current stage window.
  std::array<std::uint64_t, kStageWindow> hashes{};
  const Packet* next = pkts.data();
  const Packet* const end = next + pkts.size();
  for (;;) {
    // One pass, under one bounded NIC critical section: classify each
    // packet and stage the survivors, by pointer and in arrival order, with
    // their RX queue (== shard index), up to the first survivor that must
    // wait for a maintenance tick. Each window of packets is hashed, and
    // its FDIR buckets and chains prefetched, before any is classified;
    // the filters only change outside this section, so the hashes hold
    // for the whole window. Only survivors' timestamps are read: an
    // FDIR-dropped packet — most of a cutoff-heavy load — costs just the
    // NIC lookup.
    int due_queue = -1;
    {
      base::MutexLock lock(kernel_mutex_);
      while (next != end && due_queue < 0) {
        const auto window = std::span<const Packet>(
            next, std::min<std::size_t>(kStageWindow,
                                        static_cast<std::size_t>(end - next)));
        nic_->fdir().stage(window, hashes);
        for (std::size_t i = 0; i < window.size(); ++i, ++next) {
          const nic::RxResult rx = nic_->receive(*next, hashes[i]);
          if (rx.disposition == nic::RxDisposition::kDroppedByFilter) continue;
          if (tick_due(next->timestamp())) {
            due_queue = rx.queue;
            break;
          }
          staged_.push_back(next);
          staged_queues_.push_back(rx.queue);
        }
      }
    }
    // Hand the run over — never under kernel_mutex_: with zero workers
    // this runs the callbacks, with workers it may spin on a full ring.
    if (!staged_.empty()) {
      shards_->submit_run(staged_, staged_queues_);
      staged_.clear();
      staged_queues_.clear();
    }
    if (due_queue < 0) return;
    advance_ticks(next->timestamp());
    staged_.push_back(next++);
    staged_queues_.push_back(due_queue);
  }
}

std::uint64_t Capture::replay_pcap(const std::string& path) {
  constexpr std::size_t kBatch = 32;
  PcapReader reader(path);
  std::uint64_t n = 0;
  std::vector<Packet> batch;
  batch.reserve(kBatch);
  while (auto pkt = reader.next()) {
    batch.push_back(std::move(*pkt));
    ++n;
    if (batch.size() == kBatch) {
      inject_batch(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) inject_batch(batch);
  return n;
}

void Capture::stop() {
  if (!started_) return;
  base::MutexLock plock(producer_mutex_);
  base::SerialGuard prod(shards_->producer());
  // Flush + join workers, terminate every shard's remaining streams and
  // run the final event drain (on this thread, via the drain hook).
  shards_->stop(last_ts_);
  {
    // Apply the termination-time FDIR removals the worker shards queued.
    base::MutexLock lock(kernel_mutex_);
    shards_->service_fdir(*nic_, last_ts_);
  }
  started_ = false;
}

std::string Capture::check_invariants() {
  return shards_ != nullptr ? shards_->check_invariants() : std::string();
}

CaptureStats Capture::stats() const {
  CaptureStats s;
  if (shards_ != nullptr) {
    s.kernel = shards_->stats();
    if (trace_capacity_ > 0) {
      s.traced = true;
      s.trace_events_recorded = shards_->trace_recorded();
      s.trace_events_dropped = shards_->trace_dropped();
      s.metrics = shards_->trace_metrics();
    }
  }
  s.events_dispatched = events_dispatched_.load(std::memory_order_relaxed);
  base::MutexLock lock(kernel_mutex_);
  if (nic_) s.nic_dropped_by_filter = nic_->stats().dropped_by_filter;
  if (tracer_) {
    // The capture tracer carries the NIC events (and, with zero workers,
    // the kernel's too); fold it into the merged view.
    s.trace_events_recorded += tracer_->recorded();
    s.trace_events_dropped += tracer_->dropped();
    s.metrics.merge(tracer_->metrics());
  }
  return s;
}

}  // namespace scap
