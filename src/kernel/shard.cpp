#include "kernel/shard.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <string>
#include <utility>

#include "base/assert.hpp"
#include "faultinject/faultinject.hpp"

namespace scap::kernel {
namespace {

std::string law_violation(const char* law, std::uint64_t lhs,
                          std::uint64_t rhs) {
  return std::string(law) + " violated: " + std::to_string(lhs) + " vs " +
         std::to_string(rhs);
}

/// Derive one shard's config from the capture-wide config: private slabs
/// sized at an even split, single event queue, no cross-shard steering.
KernelConfig shard_config(const KernelConfig& base, int num_shards) {
  KernelConfig c = base;
  const auto n = static_cast<std::uint64_t>(num_shards);
  c.memory_size = std::max<std::uint64_t>(base.memory_size / n, 1);
  if (c.max_streams > 0) {
    c.max_streams = (c.max_streams + static_cast<std::size_t>(n) - 1) /
                    static_cast<std::size_t>(n);
  }
  c.num_cores = 1;
  // RSS flow affinity *is* the balance policy in sharded mode (paper §4.2);
  // FDIR-based steering to another core would move a flow off its shard.
  c.dynamic_load_balance = false;
  return c;
}

}  // namespace

KernelShards::Shard::Shard(const KernelConfig& cfg, nic::Nic* nic,
                           std::size_t ring_capacity)
    : kernel(cfg, nic), ring(ring_capacity) {}

KernelShards::KernelShards(const KernelConfig& config, int num_shards)
    : KernelShards(config, num_shards, Options()) {}

KernelShards::KernelShards(const KernelConfig& config, int num_shards,
                           Options opts)
    : opts_(opts),
      rss_(symmetric_rss_key(), num_shards > 0 ? num_shards : 1) {
  const int n = rss_.num_queues();
  const KernelConfig cfg = shard_config(config, n);
  shards_.reserve(static_cast<std::size_t>(n));
  pushed_.assign(static_cast<std::size_t>(n), 0);
  watchdog_.assign(static_cast<std::size_t>(n), WatchdogState{});
  // Ring admission mirrors the kernel's PPL ladder, so it needs the same
  // priority inputs the per-shard kernels use.
  priority_classes_ = config.priority_classes;
  default_priority_ = config.defaults.priority;
  ppl_levels_ = config.ppl.priority_levels < 1 ? 1 : config.ppl.priority_levels;
  if (opts_.trace.has_value()) {
    trace::TraceConfig ptc = *opts_.trace;
    ptc.cores = 1;
    producer_tracer_ = std::make_unique<trace::Tracer>(ptc);
  }
  for (int i = 0; i < n; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(cfg, /*nic=*/nullptr, opts_.ring_capacity));
    Shard& s = *shards_.back();
    if (opts_.trace.has_value()) {
      trace::TraceConfig tc = *opts_.trace;
      tc.cores = 1;  // the shard kernel records everything on its core 0
      s.tracer = std::make_unique<trace::Tracer>(tc);
    }
    base::MutexLock lock(s.mu);
    base::SerialGuard serial(s.kernel.serial());
    if (s.tracer != nullptr) s.kernel.set_tracer(s.tracer.get());
    refresh_snapshot(s);
  }
}

KernelShards::KernelShards(const KernelConfig& config, nic::Nic& nic,
                           trace::Tracer* tracer)
    : inline_(true), rss_(symmetric_rss_key(), 1) {
  pushed_.assign(1, 0);
  watchdog_.assign(1, WatchdogState{});
  // The ring stays empty (runs and ticks never touch it), so one slot.
  shards_.push_back(
      std::make_unique<Shard>(shard_config(config, 1), &nic, /*ring=*/1));
  Shard& s = *shards_.back();
  base::MutexLock lock(s.mu);
  base::SerialGuard serial(s.kernel.serial());
  if (tracer != nullptr) s.kernel.set_tracer(tracer);
  refresh_snapshot(s);
}

KernelShards::~KernelShards() = default;

void KernelShards::wake(Shard& s) {
  // Empty critical section before notify: the worker either has not yet
  // evaluated its wait predicate (and will see the new ring state), or is
  // inside wait() and receives the notification — no missed-wakeup window.
  { base::MutexLock lock(s.wake_mu); }
  s.wake_cv.notify_one();
}

void KernelShards::submit_to(int shard, Packet pkt) {
  if (inline_) {
    process_run(shard, std::span<const Packet>(&pkt, 1));
    return;
  }
  ShardItem item;
  item.kind = ShardItem::Kind::kPacket;
  item.pkt = std::move(pkt);
  push_item(idx(shard), std::move(item));
}

void KernelShards::submit_run(std::span<const SteeredPacket> run) {
  if (!inline_) {
    for (const SteeredPacket& sp : run) submit_to(sp.shard, *sp.pkt);
    return;
  }
  // One shard, so the whole run is its batch.
  for (const SteeredPacket& sp : run) {
    // scap-lint: allow(hot-alloc) run_ keeps its capacity across runs, so it grows only until it fits the largest run and is absent at steady state
    run_.push_back(*sp.pkt);
  }
  process_run(0, run_);
  run_.clear();
}

void KernelShards::process_run(int shard, std::span<const Packet> pkts) {
  if (pkts.empty()) return;
  Shard& s = *shards_[idx(shard)];
  s.submitted_pkts.fetch_add(pkts.size(), std::memory_order_relaxed);
  // scap-lint: allow(hot-mutex) one batch-granular lock (producer vs stop/check_invariants), amortized over the whole run — never per packet
  base::MutexLock lock(s.mu);
  base::SerialGuard serial(s.kernel.serial());
  s.kernel.handle_batch(pkts, pkts.back().timestamp(), /*core=*/0);
  s.consumed_pkts.fetch_add(pkts.size(), std::memory_order_relaxed);
  publish_and_drain(s, shard);
}

void KernelShards::tick_all(Timestamp now) {
  if (inline_) {
    Shard& s = *shards_.front();
    base::MutexLock lock(s.mu);
    base::SerialGuard serial(s.kernel.serial());
    tick_shard(s, 0, now);
    publish_and_drain(s, 0);
    return;
  }
  // The tick cadence doubles as the watchdog heartbeat check: a shard that
  // stopped consuming is detected here, before more work is queued on it.
  check_watchdog(now);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardItem item;
    item.kind = ShardItem::Kind::kMaintenance;
    item.ts = now;
    push_item(i, std::move(item));
  }
}

int KernelShards::packet_priority(const Packet& pkt) const {
  for (const auto& cls : priority_classes_) {
    if (cls.filter.matches(pkt.tuple())) return cls.priority;
  }
  return default_priority_;
}

bool KernelShards::admission_sheds(std::size_t shard, const Packet& pkt,
                                   std::size_t occ) {
  WatchdogState& w = watchdog_[shard];
  const std::size_t high = opts_.ring_high_watermark;
  const std::size_t low = std::min(opts_.ring_low_watermark, high);
  if (w.shedding) {
    // Hysteresis, mirroring the adaptive controller's enter/exit band:
    // once high is crossed the shard sheds everything until occupancy has
    // drained back to the low watermark.
    if (occ > low) return true;
    w.shedding = false;
  }
  if (occ >= high) {
    w.shedding = true;
    return true;
  }
  if (occ < low) return false;
  // PPL-mirroring ladder over [low, high): priority p is shed once
  // occupancy reaches low + (p+1)*(high-low)/levels, so the lowest
  // priority goes first and the highest survives until high itself —
  // the paper's invariant, transplanted to ring slots.
  const auto levels = static_cast<std::size_t>(ppl_levels_);
  int prio = packet_priority(pkt);
  if (prio < 0) prio = 0;
  if (prio >= ppl_levels_) prio = ppl_levels_ - 1;
  const std::size_t wm =
      low + (static_cast<std::size_t>(prio) + 1) * (high - low) / levels;
  return occ >= wm;
}

void KernelShards::shed_packet(std::size_t shard, const Packet& pkt,
                               bool stall, std::size_t occ) {
  Shard& s = *shards_[shard];
  const std::uint64_t bytes = pkt.wire_len();
  s.shed_pkts.fetch_add(1, std::memory_order_relaxed);
  s.shed_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (stall) {
    s.stall_shed_pkts.fetch_add(1, std::memory_order_relaxed);
    s.stall_shed_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  if (producer_tracer_ != nullptr) {
    int prio = packet_priority(pkt);
    if (prio < 0) prio = 0;
    SCAP_TRACE_EVENT(producer_tracer_.get(), trace::TraceEventType::kRingShed,
                     static_cast<int>(shard), pkt.timestamp(), 0,
                     static_cast<std::uint16_t>(prio),
                     static_cast<std::uint32_t>(bytes),
                     static_cast<std::uint64_t>(occ));
    producer_trace_recorded_.store(producer_tracer_->recorded(),
                                   std::memory_order_relaxed);
    producer_trace_dropped_.store(producer_tracer_->dropped(),
                                  std::memory_order_relaxed);
  }
}

void KernelShards::declare_stall(std::size_t shard, Timestamp now) {
  WatchdogState& w = watchdog_[shard];
  if (w.degraded) return;
  worker_stalls_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t done =
      shards_[shard]->processed.load(std::memory_order_acquire);
  const std::uint64_t outstanding =
      pushed_[shard] > done ? pushed_[shard] - done : 0;
  if (producer_tracer_ != nullptr) {
    // scap-lint: allow(taint-sched) intentional telemetry: the stall event reports worker liveness, which IS schedule state; keyed-stall runs stay reproducible (chaos_smoke_mc)
    SCAP_TRACE_EVENT(
        producer_tracer_.get(), trace::TraceEventType::kWorkerStall,
        static_cast<int>(shard), now, 0,
        static_cast<std::uint16_t>(opts_.stall_policy),
        static_cast<std::uint32_t>(outstanding));
    producer_trace_recorded_.store(producer_tracer_->recorded(),
                                   std::memory_order_relaxed);
    producer_trace_dropped_.store(producer_tracer_->dropped(),
                                  std::memory_order_relaxed);
  }
  if (opts_.stall_policy == StallPolicy::kFatal) {
    SCAP_ASSERT(false,
                "shard worker stalled past the watchdog deadline "
                "(StallPolicy::kFatal)");
  }
  // kDegrade — or a Release-build kFatal, where the assert is compiled
  // out: isolate the dead shard; the others keep capturing, and its
  // traffic is shed into ring_stall_shed_* from now on.
  w.degraded = true;
}

void KernelShards::check_watchdog(Timestamp now) {
  if (opts_.stall_timeout.ns() <= 0 || workers_.empty()) return;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    WatchdogState& w = watchdog_[i];
    if (w.degraded) continue;
    Shard& s = *shards_[i];
    const std::uint64_t items = s.processed.load(std::memory_order_acquire);
    const bool idle = items >= pushed_[i];
    if (!w.armed || items != w.heartbeat || idle) {
      // Progress (or nothing outstanding): reset the heartbeat baseline.
      // The first check only seeds it — tick timestamps are anchored at
      // the first packet's (arbitrary-epoch) time, so a zero-initialized
      // baseline must never count as elapsed time.
      w.armed = true;
      w.heartbeat = items;
      w.last_progress = now;
      continue;
    }
    if (now - w.last_progress < opts_.stall_timeout) continue;
    // Deadline passed with outstanding items and no progress. Grant a
    // bounded real-time grace: a starved-but-healthy worker advances as
    // soon as the producer yields the CPU; a parked one never does, which
    // keeps the verdict deterministic in simulated time.
    bool progressed = false;
    for (std::size_t spin = 0; spin < opts_.stall_spin_limit; ++spin) {
      wake(s);
      std::this_thread::yield();
      if (s.processed.load(std::memory_order_acquire) != items) {
        progressed = true;
        break;
      }
    }
    if (progressed) {
      w.heartbeat = s.processed.load(std::memory_order_acquire);
      w.last_progress = now;
      continue;
    }
    declare_stall(i, now);
  }
}

void KernelShards::push_item(std::size_t shard, ShardItem item) {
  Shard& s = *shards_[shard];
  WatchdogState& w = watchdog_[shard];
  const bool is_packet = item.kind == ShardItem::Kind::kPacket;
  if (w.degraded) {
    // Degraded shard: its worker is gone. Packets are shed (counted, so
    // conservation still balances); maintenance markers are dropped
    // silently — the dead shard's kernel is no longer ticked.
    if (is_packet) shed_packet(shard, item.pkt, /*stall=*/true, 0);
    return;
  }
  base::SerialGuard prod(s.ring.producer());
  const std::size_t occ = s.ring.size_from_producer();
  if (occ > s.occupancy_peak.load(std::memory_order_relaxed)) {
    s.occupancy_peak.store(occ, std::memory_order_relaxed);  // single writer
  }
  if (is_packet) {
    // Injected admission fault first (keyed on (shard, per-shard push
    // ordinal), so the decision is interleaving-independent): a forced
    // shed, exactly as if a watermark had been crossed. Consulted even
    // with admission disabled, so chaos runs can force deterministic
    // sheds without enabling the occupancy ladder.
    ++w.admission_rolls;
    if (faultinject::should_fail_keyed(faultinject::FaultPoint::kRingPush,
                                       shard, w.admission_rolls) ||
        (opts_.ring_high_watermark > 0 &&
         admission_sheds(shard, item.pkt, occ))) {
      shed_packet(shard, item.pkt, /*stall=*/false, occ);
      return;
    }
  }
  std::size_t spins = 0;
  const bool bounded = opts_.stall_timeout.ns() > 0 && !workers_.empty();
  while (!s.ring.try_push(std::move(item))) {
    if (workers_.empty()) {
      // Full ring and no worker (pre-start, post-stop): this thread is the
      // only consumer there is, so make room itself instead of waiting for
      // a worker that does not exist.
      // scap-lint: allow(hot-cold-call) fires only on a full ring with no worker thread, never on the threaded per-packet path
      drain_ring_inline(shard);
      continue;
    }
    // Ring full: backpressure the producer (kick the worker, then yield)
    // rather than drop — with admission off, loss must happen inside the
    // kernels, where the paper's verdict accounting can see it. When the
    // watchdog is armed the wait is bounded: a dead worker trips the stall
    // policy instead of livelocking the producer.
    wake(s);
    // scap-lint: allow(hot-syscall) bounded producer backoff on a full ring; the watchdog turns a dead worker into a stall verdict instead of a livelock
    std::this_thread::yield();
    if (bounded && ++spins >= opts_.stall_spin_limit) {
      // scap-lint: allow(hot-cold-call) fires once when the spin limit trips, never on the per-packet path
      declare_stall(shard, is_packet ? item.pkt.timestamp() : item.ts);
      if (is_packet) shed_packet(shard, item.pkt, /*stall=*/true, occ);
      return;
    }
  }
  ++pushed_[shard];
  if (is_packet) s.submitted_pkts.fetch_add(1, std::memory_order_relaxed);
  if (s.sleeping.load(std::memory_order_relaxed)) wake(s);
}

void KernelShards::start(DrainFn drain) {
  SCAP_ASSERT(workers_.empty(), "shards already started");
  SCAP_ASSERT(!stopped_, "shards already stopped");
  drain_ = std::move(drain);
  if (inline_) return;
  workers_.reserve(shards_.size());
  for (int i = 0; i < num_shards(); ++i) {
    workers_.emplace_back(
        [this, i](std::stop_token st) { worker_main(st, i); });
  }
}

void KernelShards::drain_ring_inline(std::size_t shard) {
  Shard& s = *shards_[shard];
  base::SerialGuard consumer(s.ring.consumer());
  std::vector<ShardItem> buf(opts_.batch_size);
  std::vector<Packet> scratch(opts_.batch_size);
  for (;;) {
    const std::size_t n = s.ring.pop_batch(std::span<ShardItem>(buf));
    if (n == 0) break;
    process_items(s, static_cast<int>(shard), {buf.data(), n}, scratch);
    s.processed.fetch_add(n, std::memory_order_release);
  }
}

void KernelShards::flush() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    if (workers_.empty()) {
      // No workers (inline, pre-start or post-stop): the calling thread is
      // the one consumer.
      drain_ring_inline(i);
    } else {
      // Bounded when the watchdog is armed: a dead worker trips the stall
      // policy (degraded shards are skipped — their residue is drained
      // inline by stop() once the workers are joined).
      std::size_t spins = 0;
      const bool bounded = opts_.stall_timeout.ns() > 0;
      while (!watchdog_[i].degraded &&
             s.processed.load(std::memory_order_acquire) < pushed_[i]) {
        wake(s);
        std::this_thread::yield();
        if (bounded && ++spins >= opts_.stall_spin_limit) {
          declare_stall(i, watchdog_[i].last_progress);
        }
      }
    }
  }
}

void KernelShards::service_fdir(nic::Nic& nic, Timestamp now) {
  // The inline shard's kernel owns the NIC and services it itself.
  if (inline_ || shards_.front()->kernel.fdir_outbox() == nullptr) return;
  for (const auto& sp : shards_) {
    const FdirApplied applied =
        apply_fdir_commands(*sp->kernel.fdir_outbox(), nic, now);
    fdir_applied_installs_.fetch_add(applied.installs,
                                     std::memory_order_relaxed);
    fdir_applied_reinstalls_.fetch_add(applied.reinstalls,
                                       std::memory_order_relaxed);
    fdir_applied_removals_.fetch_add(applied.removals,
                                     std::memory_order_relaxed);
    fdir_apply_failures_.fetch_add(applied.install_failures,
                                   std::memory_order_relaxed);
  }
  // Hardware filter timers: the producer is this NIC's one expiry servicer.
  fdir_applied_removals_.fetch_add(expire_fdir_filters(nic, now),
                                   std::memory_order_relaxed);
}

void KernelShards::stop(Timestamp now) {
  if (stopped_) return;
  stopped_ = true;
  if (!workers_.empty()) {
    flush();
    // jthread destruction requests stop and joins; the stop_token wakes
    // any worker parked in wait() — including a fault-stalled one, which
    // parks interruptibly — so the join is bounded.
    workers_.clear();
    // A degraded shard's ring may still hold items its dead worker never
    // consumed; this thread is now the one consumer, so drain them inline
    // (flush() takes the inline path once workers_ is empty). The shard
    // kernel is consistent — stalls land between batches, never inside
    // one — so the residue is processed normally and the in-flight
    // accounting closes.
    flush();
  }
  for (int i = 0; i < num_shards(); ++i) {
    Shard& s = *shards_[idx(i)];
    base::MutexLock lock(s.mu);
    base::SerialGuard serial(s.kernel.serial());
    s.kernel.terminate_all(now);
    publish_and_drain(s, i);
    // Again after the final drain, so the snapshot also counts the drain's
    // own trace events (kEventDispatched) from here on.
    refresh_snapshot(s);
  }
  // Bounded-drain postcondition: every packet handed to submit_to() was
  // either pushed and consumed, or shed and counted — nothing is in
  // flight after stop().
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    SCAP_INVARIANT(s.submitted_pkts.load(std::memory_order_relaxed) ==
                       s.consumed_pkts.load(std::memory_order_relaxed),
                   "ring in-flight accounting did not close at stop()");
  }
}

void KernelShards::worker_main(std::stop_token st, int shard) {
  Shard& s = *shards_[idx(shard)];
  if (faultinject::should_fail_keyed(faultinject::FaultPoint::kWorkerStall,
                                     static_cast<std::uint64_t>(shard), 1)) {
    // Injected dead worker (consulted once per worker, keyed by shard so
    // the victim set is deterministic): park until stop, consuming
    // nothing. The wait is stop_token-interruptible, so stop()'s join
    // stays bounded; the watchdog sees the flat heartbeat and fires.
    base::MutexLock lock(s.wake_mu);
    s.wake_cv.wait(lock, st, [] { return false; });
    return;
  }
  // This thread is the ring's one consumer for its whole lifetime.
  base::SerialGuard consumer(s.ring.consumer());
  std::vector<ShardItem> buf(opts_.batch_size);
  // Sized like buf and reused for every batch: process_items() writes
  // packet runs into it by index, so the worker loop never grows it.
  std::vector<Packet> scratch(opts_.batch_size);
  std::uint64_t batches = 0;
  for (;;) {
    const std::size_t n = s.ring.pop_batch(std::span<ShardItem>(buf));
    if (n == 0) {
      if (st.stop_requested()) break;  // ring drained + stop => done
      base::MutexLock lock(s.wake_mu);
      s.sleeping.store(true, std::memory_order_relaxed);
      s.wake_cv.wait(lock, st, [&s] { return !s.ring.empty_approx(); });
      s.sleeping.store(false, std::memory_order_relaxed);
      continue;
    }
    // armed() gate first: this consult runs once per *batch*, and batch
    // count is scheduling-dependent, so an unconditional roll would leak
    // schedule state into the injector's `calls` counter (which chaos_run
    // --check-reproducible bit-compares when the point is unarmed).
    if (faultinject::armed(faultinject::FaultPoint::kWorkerDelay) &&
        faultinject::should_fail_keyed(faultinject::FaultPoint::kWorkerDelay,
                                       static_cast<std::uint64_t>(shard),
                                       ++batches)) {
      // Injected scheduling perturbation: nap with the batch already popped
      // so producer-side occupancy, wakeups and batch boundaries all shift.
      // The determinism contract says none of that may change normalized
      // stats or golden traces (tests/scap/schedule_perturbation_test).
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    process_items(s, shard, {buf.data(), n}, scratch);
    s.processed.fetch_add(n, std::memory_order_release);
  }
}

void KernelShards::process_items(Shard& s, int shard,
                                 std::span<ShardItem> items,
                                 std::vector<Packet>& scratch) {
  // One lock + one serial-domain entry per *batch* — the per-packet path
  // below is lock-free shard-private state.
  // scap-lint: allow(hot-mutex) one batch-granular lock (worker vs stop/check_invariants), amortized over the whole batch — never per packet
  base::MutexLock lock(s.mu);
  base::SerialGuard serial(s.kernel.serial());
  std::size_t i = 0;
  std::uint64_t pkts = 0;
  while (i < items.size()) {
    if (items[i].kind == ShardItem::Kind::kMaintenance) {
      // Settle the event queue before the tick so everything it observes —
      // the maintenance_tick trace event's chunk_bytes, the PPL pressure
      // sample — is a pure function of the ring prefix, not of where the
      // scheduler happened to place the batch boundary
      // (tests/scap/schedule_perturbation_test pins this bit-for-bit).
      // scap-lint: allow(hot-cold-call) in-band maintenance marker: one tick per maintenance interval rides the ring so expiry stays ordered with traffic
      tick_shard(s, shard, items[i].ts);
      ++i;
      continue;
    }
    // Move the packet run into the preconstructed scratch slots by index
    // (never a growth call): items fits one pop_batch, which is capped at
    // batch_size == scratch.size().
    std::size_t run = 0;
    while (i < items.size() && items[i].kind == ShardItem::Kind::kPacket) {
      scratch[run++] = std::move(items[i].pkt);
      ++i;
    }
    s.kernel.handle_batch(std::span<const Packet>(scratch.data(), run),
                          scratch[run - 1].timestamp(), /*core=*/0);
    pkts += run;
  }
  // Consumed-packet tally for the in-flight accounting (updated inside the
  // batch's mu section, so invariant checks that hold mu see a consistent
  // pair with the kernel's pkts_seen).
  if (pkts > 0) s.consumed_pkts.fetch_add(pkts, std::memory_order_relaxed);
  publish_and_drain(s, shard);
}

void KernelShards::tick_shard(Shard& s, int shard, Timestamp now) {
  publish_and_drain(s, shard);
  s.kernel.run_maintenance(now);
}

void KernelShards::publish_and_drain(Shard& s, int shard) {
  // scap-lint: allow(hot-cold-call) per-batch snapshot publish so stats() never blocks on the consumer; amortized over the batch
  refresh_snapshot(s);
  drain_shard(shard, s.kernel);
}

void KernelShards::refresh_snapshot(Shard& s) {
  base::MutexLock snap(s.snap_mu);
  s.snapshot = s.kernel.stats();
  if (s.tracer != nullptr) {
    s.snap_trace_recorded = s.tracer->recorded();
    s.snap_trace_dropped = s.tracer->dropped();
    s.snap_metrics = s.tracer->metrics();
  }
}

void KernelShards::drain_shard(int shard, ScapKernel& k) {
  if (drain_) {
    drain_(shard, k);
    return;
  }
  // Self-drain (benches, chaos_run): consume the events and release their
  // chunk accounting so the allocator balances.
  EventQueue& q = k.events(0);
  while (!q.empty()) {
    Event ev = q.pop();
    k.release_chunk(ev);
  }
}

void KernelShards::fold_shard_shed(KernelStats& into, const Shard& s) {
  into.ring_shed_pkts += s.shed_pkts.load(std::memory_order_relaxed);
  into.ring_shed_bytes += s.shed_bytes.load(std::memory_order_relaxed);
  into.ring_stall_shed_pkts +=
      s.stall_shed_pkts.load(std::memory_order_relaxed);
  into.ring_stall_shed_bytes +=
      s.stall_shed_bytes.load(std::memory_order_relaxed);
}

void KernelShards::fold_occupancy_peak(KernelStats& into, const Shard& s) {
  // The taint witness chain stats_determinism.inc's ring_occupancy_peak
  // row requires starts at this load: a scheduling-dependent value,
  // folded into the one field classified kSchedulingDependent.
  const std::uint64_t peak = s.occupancy_peak.load(std::memory_order_relaxed);
  if (peak > into.ring_occupancy_peak) into.ring_occupancy_peak = peak;
}

void KernelShards::fold_producer_counters(KernelStats& into) const {
  for (const auto& sp : shards_) {
    fold_shard_shed(into, *sp);
    // scap-lint: allow(taint-sched) discharged: fold_occupancy_peak drains only into ring_occupancy_peak, registry-classified kSchedulingDependent
    fold_occupancy_peak(into, *sp);
  }
  into.worker_stalls += worker_stalls_.load(std::memory_order_relaxed);
  // FDIR outcomes as service_fdir applied them: threaded shard kernels
  // only queue commands, so these producer-side tallies are the counts.
  into.fdir_installs += fdir_applied_installs_.load(std::memory_order_relaxed);
  into.fdir_reinstalls +=
      fdir_applied_reinstalls_.load(std::memory_order_relaxed);
  into.fdir_removals += fdir_applied_removals_.load(std::memory_order_relaxed);
  into.fdir_install_failures +=
      fdir_apply_failures_.load(std::memory_order_relaxed);
}

KernelStats KernelShards::stats() const {
  KernelStats total;
  for (const auto& sp : shards_) {
    base::MutexLock lock(sp->snap_mu);
    total.merge(sp->snapshot);
  }
  fold_producer_counters(total);
  return total;
}

KernelStats KernelShards::shard_stats(int shard) const {
  Shard& s = *shards_[idx(shard)];
  KernelStats out;
  {
    base::MutexLock lock(s.snap_mu);
    out = s.snapshot;
  }
  fold_shard_shed(out, s);
  // scap-lint: allow(taint-sched) discharged: fold_occupancy_peak drains only into ring_occupancy_peak, registry-classified kSchedulingDependent
  fold_occupancy_peak(out, s);
  return out;
}

std::string KernelShards::check_invariants() const {
  KernelStats total;
  std::uint64_t submitted = 0;
  std::uint64_t consumed = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    base::MutexLock lock(s.mu);
    base::SerialGuard serial(s.kernel.serial());
    std::string err = s.kernel.check_invariants();
    if (!err.empty()) {
      return "shard " + std::to_string(i) + ": " + err;
    }
    total.merge(s.kernel.stats());
    // Per-shard ring conservation: the packets this kernel has seen are
    // exactly the ones its consumer retired (both read under s.mu, so the
    // pair is batch-consistent), and the consumer can never be ahead of
    // the producer.
    const std::uint64_t sub = s.submitted_pkts.load(std::memory_order_relaxed);
    const std::uint64_t con = s.consumed_pkts.load(std::memory_order_relaxed);
    if (s.kernel.stats().pkts_seen != con) {
      return "shard " + std::to_string(i) + ": " +
             law_violation("pkts_seen == ring consumed_pkts",
                           s.kernel.stats().pkts_seen, con);
    }
    if (con > sub) {
      return "shard " + std::to_string(i) + ": " +
             law_violation("ring consumed_pkts <= submitted_pkts", con, sub);
    }
    submitted += sub;
    consumed += con;
  }
  fold_producer_counters(total);
  // Aggregate ring conservation: in-flight items are non-negative — at
  // quiescence stop() asserts exact equality per shard.
  if (consumed > submitted) {
    return "shard aggregate: " +
           law_violation("ring consumed <= submitted", consumed, submitted);
  }
  std::string err = total.check_conservation();
  if (!err.empty()) return "shard aggregate: " + err;
#if defined(SCAP_ENABLE_TRACE)
  // Producer trace conservation: every shed packet and every declared
  // stall has exactly one event on the producer tracer.
  if (producer_tracer_ != nullptr) {
    const std::uint64_t shed_events =
        producer_tracer_->recorded_of(trace::TraceEventType::kRingShed);
    if (shed_events != total.ring_shed_pkts) {
      return "shard aggregate: " +
             law_violation("trace(ring_shed) == ring_shed_pkts", shed_events,
                           total.ring_shed_pkts);
    }
    const std::uint64_t stall_events =
        producer_tracer_->recorded_of(trace::TraceEventType::kWorkerStall);
    if (stall_events != total.worker_stalls) {
      return "shard aggregate: " +
             law_violation("trace(worker_stall) == worker_stalls",
                           stall_events, total.worker_stalls);
    }
  }
#endif
  return {};
}

std::uint64_t KernelShards::trace_recorded() const {
  std::uint64_t total = producer_trace_recorded_.load(std::memory_order_relaxed);
  for (const auto& sp : shards_) {
    base::MutexLock lock(sp->snap_mu);
    total += sp->snap_trace_recorded;
  }
  return total;
}

std::uint64_t KernelShards::trace_dropped() const {
  std::uint64_t total = producer_trace_dropped_.load(std::memory_order_relaxed);
  for (const auto& sp : shards_) {
    base::MutexLock lock(sp->snap_mu);
    total += sp->snap_trace_dropped;
  }
  return total;
}

trace::MetricsRegistry KernelShards::trace_metrics() const {
  trace::MetricsRegistry total;
  for (const auto& sp : shards_) {
    base::MutexLock lock(sp->snap_mu);
    total.merge(sp->snap_metrics);
  }
  return total;
}

}  // namespace scap::kernel
