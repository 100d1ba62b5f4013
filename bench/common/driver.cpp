#include "bench/common/driver.hpp"

#include <algorithm>
#include <limits>

namespace scap::bench {

// --- CacheTracker --------------------------------------------------------------

void CacheTracker::drain_until(Timestamp t) {
  while (!heap_.empty() && heap_.top().t_ns <= t.ns()) {
    const Access a = heap_.top();
    heap_.pop();
    cache_.access(a.addr, a.len);
  }
}

void CacheTracker::flush() {
  while (!heap_.empty()) {
    const Access a = heap_.top();
    heap_.pop();
    cache_.access(a.addr, a.len);
  }
}

std::uint64_t CacheTracker::stream_base(const FiveTuple& tuple) {
  const FiveTuple canon = tuple.canonical();
  std::uint64_t key = (static_cast<std::uint64_t>(canon.src_ip) << 32) ^
                      canon.dst_ip ^
                      (static_cast<std::uint64_t>(canon.src_port) << 16) ^
                      canon.dst_port;
  auto it = bases_.find(key);
  if (it != bases_.end()) return it->second;
  const std::uint64_t base = next_base_;
  next_base_ += 256 * 1024;  // one virtual buffer region per stream
  bases_.emplace(key, base);
  return base;
}

namespace {
constexpr std::uint64_t kStreamRegion = 256 * 1024;
}  // namespace

// --- ScapPipeline ----------------------------------------------------------------

ScapPipeline::ScapPipeline(ScapRunOptions options)
    : opt_(std::move(options)),
      nic_(opt_.softirq_cores),
      core_events_(static_cast<std::size_t>(opt_.softirq_cores)),
      core_streams_(static_cast<std::size_t>(opt_.softirq_cores), 0) {
  opt_.kernel.use_fdir = opt_.use_fdir;
  kernel_ = std::make_unique<kernel::ScapKernel>(opt_.kernel, &nic_);
  for (int i = 0; i < opt_.softirq_cores; ++i) {
    softirq_.emplace_back(opt_.rx_ring_bytes, opt_.costs.core_hz);
  }
  const int workers = std::max(opt_.worker_threads, 1);
  for (int i = 0; i < workers; ++i) {
    user_.emplace_back(~0ull, opt_.costs.core_hz);
  }
  if (opt_.enable_cache_model) cache_.emplace();
}

void ScapPipeline::service_releases(Timestamp now) {
  while (!releases_.empty() && releases_.top().t_ns <= now.ns()) {
    const Release r = releases_.top();
    releases_.pop();
    kernel_->allocator().release(r.size);
  }
}

double ScapPipeline::softirq_cost(const kernel::PacketOutcome& out) const {
  const sim::CostTable& c = opt_.costs;
  double cycles = c.irq_per_packet;
  switch (out.verdict) {
    case kernel::Verdict::kStored:
      cycles += c.flow_update + c.scap_reassembly_per_packet +
                c.copy_per_byte * static_cast<double>(out.stored_bytes);
      break;
    case kernel::Verdict::kControl:
    case kernel::Verdict::kCutoffDiscard:
    case kernel::Verdict::kDupDiscard:
    case kernel::Verdict::kPplDrop:
    case kernel::Verdict::kNoMemDrop:
    case kernel::Verdict::kNoRecordDrop:
    case kernel::Verdict::kChecksumDrop:
    case kernel::Verdict::kIgnored:
    case kernel::Verdict::kFilteredBpf:
    case kernel::Verdict::kFragmentHeld:
    case kernel::Verdict::kBuffered:
      cycles += c.flow_update;
      break;
    case kernel::Verdict::kInvalid:
      break;
  }
  cycles += c.event_create * out.events;
  cycles += c.fdir_update * out.fdir_updates;
  return cycles;
}

ScapPipeline::SteeringPair::~SteeringPair() {
  for (std::uint64_t id : filter_ids) fdir.remove(id);  // 0: never added
}

std::shared_ptr<ScapPipeline::SteeringPair> ScapPipeline::maybe_steer(
    const Packet& pkt) {
  if (!pkt.is_tcp() || !pkt.has_flag(kTcpSyn) || pkt.has_flag(kTcpAck)) {
    return nullptr;
  }
  if (live_.size() < opt_.imbalance_min_streams) return nullptr;
  // A SYN a filter already classifies belongs to a steered connection.
  if (nic_.fdir().match(pkt, nic::FdirTable::hash_of(pkt.tuple())) !=
      nullptr) {
    return nullptr;
  }
  const auto q = static_cast<std::size_t>(nic_.rss().queue_for(pkt));
  if (static_cast<double>(core_streams_[q]) <=
      opt_.imbalance_threshold * static_cast<double>(live_.size())) {
    return nullptr;
  }
  const auto target = static_cast<std::size_t>(
      std::min_element(core_streams_.begin(), core_streams_.end()) -
      core_streams_.begin());
  if (target == q) return nullptr;
  auto pair = std::make_shared<SteeringPair>(nic_.fdir());
  const FiveTuple tuples[2] = {pkt.tuple(), pkt.tuple().reversed()};
  for (int i = 0; i < 2; ++i) {
    nic::FdirFilter f;
    f.tuple = tuples[i];
    f.action = nic::FdirAction::kToQueue;
    f.queue = static_cast<int>(target);
    // Never expires: the pair leaves with its connection, and the kernel's
    // expiry pass, which counts what it expires, never takes it.
    f.expires = Timestamp(std::numeric_limits<std::int64_t>::max());
    pair->filter_ids[i] = nic_.fdir().add(f);
    // Rejected: dropping the pair undoes the half installed.
    if (pair->filter_ids[i] == 0) return nullptr;
  }
  return pair;
}

void ScapPipeline::adopt(const kernel::PacketOutcome& out, int q,
                         std::shared_ptr<SteeringPair> steering) {
  LiveStream s{q, nullptr};
  if (auto opp = live_.find(out.opposite); opp != live_.end()) {
    s = opp->second;  // both directions on one core, sharing any pair
  } else if (steering != nullptr) {
    s.steering = std::move(steering);
    ++result_.streams_rebalanced;
  }
  ++core_streams_[static_cast<std::size_t>(s.core)];
  live_.emplace(out.stream_id, std::move(s));
}

void ScapPipeline::route_events() {
  kernel::EventQueue& evq = kernel_->events();
  while (!evq.empty()) {
    kernel::Event ev = evq.pop();
    const auto it = live_.find(ev.stream.id);
    const auto core = static_cast<std::size_t>(it->second.core);
    if (ev.type == kernel::EventType::kTerminated) {
      --core_streams_[core];
      live_.erase(it);
    }
    core_events_[core].push(std::move(ev));
  }
}

void ScapPipeline::drain_events(int core, Timestamp ready) {
  kernel::EventQueue& evq = core_events_[static_cast<std::size_t>(core)];
  const int workers = static_cast<int>(user_.size());
  while (!evq.empty()) {
    kernel::Event ev = evq.pop();
    const int w = core % workers;
    const sim::CostTable& c = opt_.costs;
    const std::uint64_t len = ev.chunk.data.size();
    double cycles = c.event_dispatch;
    if (ev.type == kernel::EventType::kData && len > 0) {
      cycles += c.user_touch_per_byte * static_cast<double>(len);
      if (opt_.automaton != nullptr) {
        cycles += c.match_per_byte * static_cast<double>(len);
        if (!opt_.count_matches) {
          // Load-only mode: cycles charged, no actual scan.
        } else if (opt_.deliver_packets && !ev.chunk.packets.empty()) {
          // Per-packet matching: patterns spanning packets are missed.
          for (const auto& rec : ev.chunk.packets) {
            if (rec.chunk_offset + rec.caplen > ev.chunk.data.size()) continue;
            result_.matches += opt_.automaton->scan(
                std::span<const std::uint8_t>(ev.chunk.data)
                    .subspan(rec.chunk_offset, rec.caplen));
          }
        } else {
          result_.matches +=
              opt_.automaton->scan(std::span<const std::uint8_t>(ev.chunk.data));
        }
      }
    }
    if (ev.type == kernel::EventType::kTerminated) {
      ++result_.streams_tracked;
      if (ev.stream.stats.captured_bytes > 0) ++result_.streams_with_data;
      const int p = std::clamp(ev.stream.params.priority, 0, 1);
      result_.prio_pkts[p] += ev.stream.stats.pkts;
      result_.prio_dropped[p] += ev.stream.stats.dropped_pkts;
    }
    user_[w].offer(ready, len, cycles);
    const Timestamp done = user_[w].last_completion();
    if (ev.chunk_alloc != 0) {
      releases_.push({done.ns(), ev.chunk_alloc});
    }
    if (cache_ && ev.type == kernel::EventType::kData && len > 0) {
      // Worker reads the chunk out of the shared stream buffer.
      const std::uint64_t base = cache_->stream_base(ev.stream.tuple);
      cache_->add(done, base + ev.chunk.stream_offset % kStreamRegion, len);
    }
  }
}

void ScapPipeline::offer(const Packet& pkt) {
  const Timestamp t = pkt.timestamp();
  last_ts_ = t;
  ++result_.pkts_offered;
  result_.bytes_offered += pkt.wire_len();
  service_releases(t);
  if (cache_) cache_->drain_until(t);

  std::shared_ptr<SteeringPair> steering;
  if (opt_.dynamic_load_balance) steering = maybe_steer(pkt);
  const nic::RxResult rx = nic_.receive(pkt);
  if (rx.disposition == nic::RxDisposition::kDroppedByFilter) {
    ++result_.pkts_nic_filtered;
    return;  // subzero copy: the host never sees this packet
  }
  const int q = rx.queue;
  auto& soft = softirq_[q];
  if (soft.backlog_bytes(t) + pkt.wire_len() > opt_.rx_ring_bytes) {
    ++result_.pkts_dropped;  // RX descriptor ring overflow
    return;
  }
  const kernel::PacketOutcome out = kernel_->handle_packet(pkt, t);
  if (out.created_stream) adopt(out, q, std::move(steering));
  route_events();
  const double soft_cycles = softirq_cost(out);
  soft.offer(t, pkt.wire_len(), soft_cycles);
  // The worker pinned to this core loses the cycles its colocated softirq
  // context consumed (the reason Fig. 10's speedup is sublinear).
  if (q < static_cast<int>(user_.size())) {
    user_[static_cast<std::size_t>(q)].charge(t, soft_cycles);
  }
  if (out.verdict == kernel::Verdict::kPplDrop ||
      out.verdict == kernel::Verdict::kNoMemDrop) {
    ++result_.pkts_dropped;
  }
  if (cache_ && out.stored_bytes > 0) {
    // Kernel writes the payload straight into the stream's buffer.
    const std::uint64_t base = cache_->stream_base(pkt.tuple());
    cache_->add(soft.last_completion(), base + pkt.seq() % kStreamRegion,
                out.stored_bytes);
  }
  drain_events(q, soft.last_completion());
}

RunResult ScapPipeline::finish() {
  kernel_->terminate_all(last_ts_);
  route_events();
  for (int c = 0; c < opt_.softirq_cores; ++c) {
    const Timestamp ready =
        std::max(last_ts_, softirq_[static_cast<std::size_t>(c)].busy_until());
    drain_events(c, ready);
  }
  service_releases(Timestamp(std::numeric_limits<std::int64_t>::max()));
  if (cache_) {
    cache_->flush();
    result_.l2_misses = cache_->misses();
    result_.l2_misses_per_pkt =
        result_.pkts_offered
            ? static_cast<double>(result_.l2_misses) /
                  static_cast<double>(result_.pkts_offered)
            : 0.0;
  }

  const Timestamp horizon = last_ts_;
  result_.duration_sec = horizon.sec();
  // Application CPU excludes the colocated softirq load (the paper reports
  // the two separately).
  double user_busy = 0.0;
  for (auto& u : user_) user_busy += u.busy_cycles() - u.charged_cycles();
  const double user_capacity = static_cast<double>(user_.size()) *
                               opt_.costs.core_hz * horizon.sec();
  result_.cpu_user_pct =
      user_capacity > 0
          ? std::min(100.0, 100.0 * user_busy / user_capacity)
          : 0.0;
  double soft_busy = 0.0;
  for (auto& s : softirq_) soft_busy += s.busy_cycles();
  const double capacity = static_cast<double>(opt_.softirq_cores) *
                          opt_.costs.core_hz * horizon.sec();
  result_.softirq_pct = capacity > 0 ? 100.0 * soft_busy / capacity : 0.0;
  return result_;
}

// --- BaselinePipeline --------------------------------------------------------------

BaselinePipeline::BaselinePipeline(BaselineRunOptions options)
    : opt_(std::move(options)),
      nic_(opt_.softirq_cores),
      user_(opt_.capture_ring_bytes, opt_.costs.core_hz) {
  for (int i = 0; i < opt_.softirq_cores; ++i) {
    softirq_.emplace_back(opt_.rx_ring_bytes, opt_.costs.core_hz);
  }
  baseline::ChunkFn on_chunk = [this](const FiveTuple& tuple,
                                      std::span<const std::uint8_t> data) {
    matched_bytes_pending_ += data.size();
    if (opt_.automaton != nullptr && opt_.count_matches) {
      result_.matches += opt_.automaton->scan(data);
    }
    if (cache_) {
      // Reassembled chunk is read out of the per-stream buffer.
      const std::uint64_t base = cache_->stream_base(tuple);
      cache_->add(last_ts_, base, data.size());
    }
  };
  switch (opt_.kind) {
    case BaselineKind::kLibnids: {
      baseline::NidsConfig cfg;
      cfg.max_flows = opt_.max_flows;
      cfg.cutoff_bytes = opt_.cutoff_bytes;
      cfg.chunk_size = opt_.chunk_size;
      cfg.inactivity_timeout = opt_.inactivity_timeout;
      engine_ = std::make_unique<baseline::NidsEngine>(cfg, on_chunk);
      break;
    }
    case BaselineKind::kStream5: {
      baseline::Stream5Config cfg;
      cfg.max_flows = opt_.max_flows;
      cfg.cutoff_bytes = opt_.cutoff_bytes;
      cfg.chunk_size = opt_.chunk_size;
      cfg.inactivity_timeout = opt_.inactivity_timeout;
      engine_ = std::make_unique<baseline::Stream5Engine>(cfg, on_chunk);
      break;
    }
    case BaselineKind::kYaf: {
      engine_ = std::make_unique<baseline::YafEngine>(baseline::YafConfig{},
                                                      nullptr);
      break;
    }
  }
  if (opt_.enable_cache_model) cache_.emplace();
}

void BaselinePipeline::offer(const Packet& pkt) {
  const Timestamp t = pkt.timestamp();
  last_ts_ = t;
  ++result_.pkts_offered;
  result_.bytes_offered += pkt.wire_len();
  if (cache_) cache_->drain_until(t);

  const nic::RxResult rx = nic_.receive(pkt);
  const int q = rx.queue;
  auto& soft = softirq_[q];
  if (soft.backlog_bytes(t) + pkt.wire_len() > opt_.rx_ring_bytes) {
    ++result_.pkts_dropped;
    return;
  }

  const std::uint32_t snaplen = engine_->snaplen();
  const Packet captured =
      snaplen != 0 && pkt.capture_len() > snaplen ? pkt.snapped(snaplen) : pkt;
  const std::uint32_t caplen = captured.capture_len();

  // Is there room in the shared capture ring? If not, the kernel drops the
  // packet after the interrupt but before the copy (PF_PACKET behaviour).
  const bool ring_ok =
      user_.backlog_bytes(t) + caplen <= opt_.capture_ring_bytes;
  const sim::CostTable& c = opt_.costs;
  const double soft_cycles =
      c.irq_per_packet +
      (ring_ok ? c.ring_copy_per_byte * static_cast<double>(caplen) : 0.0);
  soft.offer(t, pkt.wire_len(), soft_cycles);
  // The single application thread shares core 0 with that core's softirq.
  if (q == 0) user_.charge(t, soft_cycles);
  const Timestamp tdone = soft.last_completion();
  if (!ring_ok) {
    ++result_.pkts_dropped;
    return;
  }
  if (cache_) {
    // Softirq writes the frame into the circular capture ring.
    cache_->add(tdone, ring_cursor_, caplen);
  }

  // User stage: engine processes the packet functionally; costs follow
  // from what it actually did.
  const baseline::EngineStats& st = engine_->stats();
  const std::uint64_t copy_before = st.copy_bytes;
  const std::uint64_t cutoff_before = st.pkts_discarded_cutoff;
  matched_bytes_pending_ = 0;
  engine_->on_packet(captured, t);
  const std::uint64_t copied = st.copy_bytes - copy_before;
  const bool cutoff_discarded = st.pkts_discarded_cutoff != cutoff_before;

  double cycles = c.pcap_deliver_per_packet;
  switch (opt_.kind) {
    case BaselineKind::kYaf:
      cycles += c.yaf_flow_update +
                c.user_touch_per_byte * static_cast<double>(caplen);
      break;
    case BaselineKind::kLibnids:
      cycles += c.flow_update + c.nids_reassembly_per_packet;
      break;
    case BaselineKind::kStream5:
      cycles += c.flow_update + c.stream5_reassembly_per_packet;
      break;
  }
  if (!cutoff_discarded) {
    cycles += c.copy_per_byte * static_cast<double>(copied);
  }
  if (opt_.automaton != nullptr && matched_bytes_pending_ > 0) {
    cycles +=
        c.match_per_byte * static_cast<double>(matched_bytes_pending_);
  }
  user_.offer(tdone, caplen, cycles);

  if (cache_) {
    const Timestamp udone = user_.last_completion();
    // User stage reads the frame back out of the ring...
    cache_->add(udone, ring_cursor_, caplen);
    // ...and copies the payload into the per-stream reassembly buffer.
    if (copied > 0) {
      const std::uint64_t base = cache_->stream_base(pkt.tuple());
      cache_->add(udone, base + pkt.seq() % kStreamRegion, copied);
    }
  }
  ring_cursor_ = (ring_cursor_ + caplen) % opt_.capture_ring_bytes;
}

RunResult BaselinePipeline::finish() {
  matched_bytes_pending_ = 0;
  engine_->finish(last_ts_);
  if (opt_.automaton != nullptr && matched_bytes_pending_ > 0) {
    user_.offer(last_ts_, 0,
                opt_.costs.match_per_byte *
                    static_cast<double>(matched_bytes_pending_));
  }
  if (cache_) {
    cache_->flush();
    result_.l2_misses = cache_->misses();
    result_.l2_misses_per_pkt =
        result_.pkts_offered
            ? static_cast<double>(result_.l2_misses) /
                  static_cast<double>(result_.pkts_offered)
            : 0.0;
  }
  const baseline::EngineStats& st = engine_->stats();
  result_.streams_tracked = st.streams_tracked;
  result_.streams_with_data = st.streams_with_data;

  const Timestamp horizon = last_ts_;
  result_.duration_sec = horizon.sec();
  const double user_capacity = opt_.costs.core_hz * horizon.sec();
  result_.cpu_user_pct =
      user_capacity > 0
          ? std::min(100.0, 100.0 *
                                (user_.busy_cycles() - user_.charged_cycles()) /
                                user_capacity)
          : 0.0;
  double soft_busy = 0.0;
  for (auto& s : softirq_) soft_busy += s.busy_cycles();
  const double capacity = static_cast<double>(opt_.softirq_cores) *
                          opt_.costs.core_hz * horizon.sec();
  result_.softirq_pct = capacity > 0 ? 100.0 * soft_busy / capacity : 0.0;
  return result_;
}

// --- Convenience runners --------------------------------------------------------

RunResult run_scap(const flowgen::Trace& trace, double rate_gbps, int loops,
                   ScapRunOptions options) {
  ScapPipeline pipe(std::move(options));
  flowgen::Replayer replayer(trace, rate_gbps, loops);
  replayer.for_each([&](const Packet& pkt) { pipe.offer(pkt); });
  return pipe.finish();
}

RunResult run_baseline(const flowgen::Trace& trace, double rate_gbps,
                       int loops, BaselineRunOptions options) {
  BaselinePipeline pipe(std::move(options));
  flowgen::Replayer replayer(trace, rate_gbps, loops);
  replayer.for_each([&](const Packet& pkt) { pipe.offer(pkt); });
  return pipe.finish();
}

}  // namespace scap::bench
