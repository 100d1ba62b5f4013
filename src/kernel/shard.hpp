// Multi-core sharded kernel datapath (paper §4, DESIGN.md §12).
//
// The paper parallelizes Scap by steering flows to cores with symmetric RSS
// and running an independent stream-reassembly context per core. This layer
// is that structure: N shards, each owning a complete ScapKernel — its own
// flow-table slab pool, chunk allocator, PPL controller, event queue, and
// trace ring. A flow's two directions hash to the same shard (RssEngine
// canonicalizes the 4-tuple), so no flow state is ever shared: the
// per-packet path takes no shared lock at all.
//
// Two ways to drive the shards, fixed at construction:
//   * threaded — one worker thread per shard, fed from a single producer
//     through per-shard lock-free SPSC rings; each shard kernel queues its
//     FDIR commands in its own outbox, and the NIC-owning producer applies
//     them in service_fdir, never under a lock;
//   * inline — one shard, no threads: the producer is the consumer and
//     processes each submitted run of packets itself, and the shard kernel
//     owns the NIC, so it applies its own outbox (the zero-worker Capture).
//
// Locking model (every lock here is per-shard and batch-granular):
//   * ring producer/consumer SerialDomains — structural single-writer
//     discipline on the SPSC handoff (proven by clang -Wthread-safety);
//   * Shard::mu — serializes entry into the shard kernel between its
//     consumer (once per batch, never per packet) and quiescent-state
//     callers (stop(), check_invariants(), tests);
//   * Shard::snap_mu — guards a per-batch KernelStats snapshot so stats()
//     aggregation never touches a kernel mutex (callable from event
//     handlers without deadlock).
//
// Aggregation: every KernelStats conservation law is linear, so the
// shard-sum satisfies check_conservation whenever each shard does; stats()
// returns that sum (PPL cutoff/overload are combined, not summed).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "base/hotpath.hpp"
#include "base/mutex.hpp"
#include "base/ring.hpp"
#include "base/thread_annotations.hpp"
#include "kernel/module.hpp"
#include "nic/rss.hpp"
#include "trace/trace.hpp"

namespace scap::kernel {

/// What the worker-stall watchdog does when a shard stops consuming
/// (DESIGN.md §13): fail fast, or isolate the dead shard and keep capturing.
enum class StallPolicy : std::uint8_t {
  kFatal,    // SCAP_ASSERT: abort within the deadline instead of hanging
  kDegrade,  // shed the shard's traffic (counted), others keep running
};

/// One slot on a shard's ingest ring: a packet, or an in-band maintenance
/// marker. Markers ride the same ring as packets so each shard observes
/// "tick at time T" at exactly the right point in its packet sequence —
/// that ordering is what makes shard-aggregated expiry accounting equal a
/// single-core replay (the shard-conservation tests assert it bit-for-bit).
struct ShardItem {
  enum class Kind : std::uint8_t { kPacket, kMaintenance };
  Kind kind = Kind::kPacket;
  Packet pkt;      // kPacket
  Timestamp ts{};  // kMaintenance: the tick's simulated time
};

/// A packet the NIC has steered: its RX queue is its shard.
struct SteeredPacket {
  const Packet* pkt;
  int shard;
};

/// N per-core ScapKernel instances, threaded behind SPSC ingest rings or
/// driven inline by the producer.
///
/// Thread roles: exactly one producer thread drives submit()/submit_run()/
/// tick_all()/flush()/service_fdir() (annotated SCAP_REQUIRES(producer()));
/// start() spawns one worker thread per shard unless the shards are inline;
/// stats() may be called from any thread, including event handlers.
class KernelShards {
 public:
  struct Options {
    /// Per-shard SPSC ring slots (rounded up to a power of two). The
    /// producer spins when a ring fills, so capacity trades producer
    /// stalls against memory — it never loses packets.
    std::size_t ring_capacity = 4096;
    /// Worker pop batch (feeds ScapKernel::handle_batch's prefetch loop).
    std::size_t batch_size = 32;
    /// Per-shard tracer config (single-ring; the shard kernel records on
    /// core 0 of its own tracer). Disabled when unset.
    std::optional<trace::TraceConfig> trace;

    /// Watermark-based ring admission (DESIGN.md §13). 0 (the default)
    /// disables admission: the producer backpressures on a full ring and
    /// never sheds, the lossless PR-6 handoff. When high > 0 the producer
    /// sheds instead of blocking: occupancy at/above `ring_high_watermark`
    /// slots sheds every data packet for that shard; between low and high
    /// a ladder mirroring the PPL watermarks sheds by packet priority,
    /// lowest first (priority p is shed at occupancy >=
    /// low + (p+1)*(high-low)/levels). Hysteresis mirrors the adaptive
    /// controller: once high is crossed the shard sheds everything until
    /// occupancy falls back to `ring_low_watermark`.
    std::size_t ring_high_watermark = 0;
    std::size_t ring_low_watermark = 0;

    /// Worker-stall watchdog deadline in simulated time, checked from the
    /// producer's tick cadence: a shard with outstanding items whose
    /// consumption counter has not advanced for this long (and still does
    /// not advance within a bounded real-time grace of `stall_spin_limit`
    /// yields) is declared stalled. Zero (the default) disables.
    Duration stall_timeout = Duration(0);
    StallPolicy stall_policy = StallPolicy::kDegrade;
    /// Bounded real-time grace (yield iterations) granted to a suspect
    /// worker — and to full-ring backpressure when the watchdog is armed —
    /// before the stall policy fires. A healthy-but-starved worker makes
    /// progress as soon as the producer yields the CPU; a parked one never
    /// does, which keeps the verdict deterministic.
    std::size_t stall_spin_limit = std::size_t{1} << 20;
  };

  /// Event-drain hook: called on the consuming thread after every processed
  /// batch and before every in-band maintenance tick (so the tick observes
  /// settled chunk accounting — a pure function of the ring prefix, never
  /// of batch boundaries), and from stop() after terminate_all — always
  /// with the shard's kernel serialized (take a fresh SerialGuard on
  /// kernel.serial() inside the callback; it is a zero-cost re-assertion
  /// the analysis needs). The stats snapshot is published just before each
  /// drain, so a handler reading stats() never sees an event that the
  /// snapshot's events_emitted does not count yet.
  /// When no hook is installed the shards drain their own event queues and
  /// release chunk accounting (benches, chaos_run).
  using DrainFn = std::function<void(int shard, ScapKernel& kernel)>;

  /// The shard configs are derived from `config`: memory_size and a
  /// nonzero max_streams are divided across shards, num_cores forced to 1,
  /// dynamic_load_balance off (cross-shard steering would break flow
  /// affinity — RSS affinity *is* the balance policy, paper §4.2).
  KernelShards(const KernelConfig& config, int num_shards);
  KernelShards(const KernelConfig& config, int num_shards, Options opts);
  /// Inline shards: one shard, never a worker thread. The shard kernel
  /// owns `nic`: it applies its own FDIR outbox and expires the NIC's
  /// filters in its maintenance pass. It records on `tracer` (may be
  /// null), which the producer may share for its own NIC events. Both must
  /// outlive the shards.
  KernelShards(const KernelConfig& config, nic::Nic& nic,
               trace::Tracer* tracer);
  ~KernelShards();

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Direct shard access for quiescent callers (tests after flush()/stop(),
  /// or under lock_shard()). The kernel's own serial() capability governs
  /// entry as usual.
  ScapKernel& kernel(int shard) { return shards_[idx(shard)]->kernel; }
  base::Mutex& shard_mutex(int shard) { return shards_[idx(shard)]->mu; }
  trace::Tracer* tracer(int shard) {
    return shards_[idx(shard)]->tracer.get();
  }
  /// Producer-side tracer carrying kRingShed/kWorkerStall events (null when
  /// tracing is disabled). Quiescent readers only, like tracer(int).
  trace::Tracer* producer_tracer() { return producer_tracer_.get(); }

  // --- producer side ------------------------------------------------------
  /// The single-producer capability: whoever holds it is the one thread
  /// feeding the rings (Capture backs it with its producer lock).
  base::SerialDomain& producer() const SCAP_RETURN_CAPABILITY(producer_) {
    return producer_;
  }

  /// Symmetric-RSS shard for this packet (both flow directions agree).
  int shard_for(const Packet& pkt) const { return rss_.queue_for(pkt); }

  /// Steer the packet to its flow's shard. With admission disabled
  /// (ring_high_watermark == 0) a full ring backpressures the producer and
  /// no packet is ever lost to the handoff; with admission enabled the
  /// producer sheds by PPL priority instead of blocking, and the shed is
  /// counted (ring_shed_*) so packet conservation stays exact.
  SCAP_HOT void submit(Packet pkt) SCAP_REQUIRES(producer_) {
    submit_to(shard_for(pkt), std::move(pkt));
  }
  SCAP_HOT void submit_to(int shard, Packet pkt) SCAP_REQUIRES(producer_);

  /// Hand over a run of steered packets in arrival order, copied in.
  /// Threaded, each is pushed onto its shard's ring as submit_to() would;
  /// inline, the calling thread processes the run as one kernel batch and
  /// drains its events — no ring round trip. A run must not straddle a
  /// maintenance tick: call tick_all() between runs.
  SCAP_HOT void submit_run(std::span<const SteeredPacket> run)
      SCAP_REQUIRES(producer_);

  /// Push an in-band maintenance marker at simulated time `now` onto every
  /// shard (inline: run the maintenance pass right here). Call at a fixed
  /// cadence (and before submitting packets with timestamps >= now) to
  /// keep expiry deterministic across shard counts.
  /// This is also the watchdog heartbeat check: shards that stopped
  /// consuming are detected here (Options::stall_timeout).
  void tick_all(Timestamp now) SCAP_REQUIRES(producer_);

  /// Block until every submitted item has been fully processed (rings
  /// empty and the in-flight worker batches retired).
  SCAP_COLD void flush() SCAP_REQUIRES(producer_);

  /// Apply every threaded shard kernel's FDIR outbox to the producer-owned
  /// NIC (apply_fdir_commands, the outboxes' one consumer), then expire
  /// its timed-out filters. A no-op for inline shards, whose kernel owns
  /// the NIC and services it itself.
  SCAP_COLD void service_fdir(nic::Nic& nic, Timestamp now)
      SCAP_REQUIRES(producer_);

  // --- lifecycle ----------------------------------------------------------
  /// Install the drain hook and spawn one worker thread per shard (none
  /// for inline shards). `drain` may be empty (self-drain).
  void start(DrainFn drain) SCAP_REQUIRES(producer_);

  /// Flush the rings, join the workers, then terminate_all() on every
  /// shard (on the calling thread) and run the final event drain. The
  /// producer must not submit afterwards. Idempotent. Bounded even when a
  /// worker is dead: the flush wait is capped by the watchdog (when armed),
  /// join is bounded because a stalled worker parks on an interruptible
  /// wait, and any items its ring still holds are drained inline on the
  /// calling thread afterwards, so the in-flight accounting closes exactly
  /// (submitted == consumed + shed is asserted per shard).
  SCAP_COLD void stop(Timestamp now) SCAP_REQUIRES(producer_);

  /// True once the watchdog declared this shard stalled under policy
  /// kDegrade; its subsequent traffic is shed into ring_stall_shed_*.
  bool degraded(int shard) const SCAP_REQUIRES(producer_) {
    return watchdog_[idx(shard)].degraded;
  }

  /// Items submitted to this shard that its worker has not retired yet —
  /// what the watchdog counts as outstanding.
  std::uint64_t backlog(int shard) const SCAP_REQUIRES(producer_) {
    const Shard& s = *shards_[idx(shard)];
    return pushed_[idx(shard)] - s.processed.load(std::memory_order_acquire);
  }

  // --- aggregate views ----------------------------------------------------
  /// Shard-summed KernelStats, built from the per-batch snapshots (never
  /// blocks on a worker; safe from event handlers). Counters and
  /// histograms sum; ppl_effective_cutoff is the tightest active shard
  /// cutoff and ppl_overload_active is set when any shard is overloaded.
  KernelStats stats() const;

  /// Per-shard stats snapshot (same source as stats()).
  KernelStats shard_stats(int shard) const;

  /// Every shard's check_invariants() plus check_conservation on the
  /// aggregate. Quiescent callers only (locks each shard's kernel; do not
  /// call from an event handler). Returns "" when every law holds.
  SCAP_COLD std::string check_invariants() const;

  /// Sum of trace events recorded/dropped across the per-shard tracers,
  /// and the merge of their metric registries. Snapshot-based (updated
  /// once per worker batch), so reading them never races a recording
  /// worker.
  std::uint64_t trace_recorded() const;
  std::uint64_t trace_dropped() const;
  trace::MetricsRegistry trace_metrics() const;

 private:
  struct Shard {
    Shard(const KernelConfig& cfg, nic::Nic* nic, std::size_t ring_capacity);

    ScapKernel kernel;  // enter under mu + kernel.serial()
    SpscRing<ShardItem> ring;
    std::unique_ptr<trace::Tracer> tracer;

    /// Serializes kernel entry: the consumer takes it once per batch;
    /// stop() and check_invariants() take it from other threads.
    base::Mutex mu;

    /// Per-batch snapshots (kernel counters + trace totals), so
    /// aggregation never waits on a batch and never reads state the
    /// consumer is mutating.
    mutable base::Mutex snap_mu;
    KernelStats snapshot SCAP_GUARDED_BY(snap_mu);
    std::uint64_t snap_trace_recorded SCAP_GUARDED_BY(snap_mu) = 0;
    std::uint64_t snap_trace_dropped SCAP_GUARDED_BY(snap_mu) = 0;
    trace::MetricsRegistry snap_metrics SCAP_GUARDED_BY(snap_mu);

    /// Worker parking: the worker only sleeps on an empty ring; the
    /// producer takes wake_mu solely to publish the wakeup (never on the
    /// fast path while the worker is awake).
    base::Mutex wake_mu;
    base::CondVar wake_cv;
    std::atomic<bool> sleeping{false};

    /// Retired-item count (worker side); flush() compares against the
    /// producer's local pushed count and the watchdog reads it as the
    /// shard's heartbeat.
    std::atomic<std::uint64_t> processed{0};

    /// In-flight packet accounting + admission counters. Single writer
    /// each (producer or consumer as noted), relaxed tallies so stats()
    /// and invariant checks can fold them in from any thread.
    std::atomic<std::uint64_t> submitted_pkts{0};   // producer: ring pushes
    std::atomic<std::uint64_t> consumed_pkts{0};    // consumer: kernel entries
    std::atomic<std::uint64_t> shed_pkts{0};        // producer: admission shed
    std::atomic<std::uint64_t> shed_bytes{0};       // producer: wire bytes
    std::atomic<std::uint64_t> stall_shed_pkts{0};  // producer: degraded shed
    std::atomic<std::uint64_t> stall_shed_bytes{0};
    std::atomic<std::uint64_t> occupancy_peak{0};   // producer-observed max
  };

  /// Producer-private per-shard watchdog + admission state. `heartbeat` is
  /// the shard's `processed` value at the last observed progress (or idle)
  /// point, `last_progress` the simulated time of that observation.
  struct WatchdogState {
    std::uint64_t heartbeat = 0;
    Timestamp last_progress{};
    bool armed = false;     // first tick seeds the baseline instead of firing
    bool degraded = false;  // stall declared under StallPolicy::kDegrade
    bool shedding = false;  // admission hysteresis: high crossed, low not yet
    std::uint64_t admission_rolls = 0;  // kRingPush fault ordinal (1-based)
  };

  std::size_t idx(int shard) const {
    return static_cast<std::size_t>(shard);
  }
  void worker_main(std::stop_token st, int shard);
  /// One mutex + serial-domain entry per batch; scratch is the caller's
  /// reusable packet buffer (no per-batch allocation).
  SCAP_HOT void process_items(Shard& s, int shard, std::span<ShardItem> items,
                              std::vector<Packet>& scratch);
  /// Inline shards: one kernel entry for a run of packets, processed and
  /// drained on the calling thread.
  SCAP_HOT void process_run(int shard, std::span<const Packet> pkts)
      SCAP_REQUIRES(producer_);
  /// Consume everything on `shard`'s ring on the calling thread — the one
  /// consumer whenever no worker thread exists (pre-start, post-stop).
  SCAP_COLD void drain_ring_inline(std::size_t shard) SCAP_REQUIRES(producer_);
  /// The in-band maintenance marker: settle the event queue, then run the
  /// kernel's maintenance pass at `now`.
  SCAP_COLD void tick_shard(Shard& s, int shard, Timestamp now)
      SCAP_REQUIRES(s.kernel.serial());
  /// End of a kernel entry: publish the stats snapshot, then drain the
  /// events (in that order — see DrainFn).
  void publish_and_drain(Shard& s, int shard)
      SCAP_REQUIRES(s.kernel.serial());
  SCAP_HOT void push_item(std::size_t shard, ShardItem item)
      SCAP_REQUIRES(producer_);
  /// Watermark-ladder admission for a data packet at ring occupancy `occ`.
  /// Returns true when the packet must be shed (does not count it).
  bool admission_sheds(std::size_t shard, const Packet& pkt, std::size_t occ)
      SCAP_REQUIRES(producer_);
  /// Count (and trace) one shed packet; `stall` routes it into the
  /// ring_stall_shed_* sub-counters as well.
  void shed_packet(std::size_t shard, const Packet& pkt, bool stall,
                   std::size_t occ) SCAP_REQUIRES(producer_);
  /// Heartbeat check over every shard, run from tick_all at simulated time
  /// `now`. Declares a stall per Options::stall_policy after the deadline
  /// plus a bounded real-time grace.
  void check_watchdog(Timestamp now) SCAP_REQUIRES(producer_);
  /// Fire the stall policy for one shard (SCAP_ASSERT or degraded mode).
  SCAP_COLD void declare_stall(std::size_t shard, Timestamp now)
      SCAP_REQUIRES(producer_);
  /// 0-based PPL priority of a packet, from config priority classes (first
  /// match wins) falling back to the stream default.
  int packet_priority(const Packet& pkt) const;
  /// Fold one shard's shed tallies into a stats snapshot. The shed
  /// decisions are keyed and interleaving-independent (chaos_smoke_mc
  /// gates that dynamically), so these folds are determinism-clean.
  static void fold_shard_shed(KernelStats& into, const Shard& s);
  /// Fold the producer-observed ring-depth peak — the one snapshot number
  /// that is genuinely scheduling-dependent. Kept separate from
  /// fold_shard_shed so the taint pass (tools/scap_taint.py) sees the
  /// schedule coupling drain into exactly one registry-classified field.
  static void fold_occupancy_peak(KernelStats& into, const Shard& s);
  /// Fold every producer-side counter (shed, stalls, applied FDIR) into
  /// an aggregate snapshot.
  void fold_producer_counters(KernelStats& into) const;
  /// Re-publish the shard's post-batch snapshot (kernel stats + trace
  /// totals) under snap_mu.
  SCAP_COLD void refresh_snapshot(Shard& s) SCAP_REQUIRES(s.kernel.serial());
  void drain_shard(int shard, ScapKernel& k) SCAP_REQUIRES(k.serial());
  void wake(Shard& s);

  Options opts_;
  /// Inline shards (the NIC-owning constructor): no worker threads ever,
  /// the producer processes every run and tick itself.
  const bool inline_ = false;
  nic::RssEngine rss_;
  std::vector<std::unique_ptr<Shard>> shards_;
  DrainFn drain_;
  std::vector<std::jthread> workers_;
  mutable base::SerialDomain producer_;
  /// Inline shards: the run submit_run() gathers for one kernel batch.
  std::vector<Packet> run_ SCAP_GUARDED_BY(producer_);
  /// Producer-local push counts per shard (single producer, no atomics).
  std::vector<std::uint64_t> pushed_ SCAP_GUARDED_BY(producer_);
  bool stopped_ SCAP_GUARDED_BY(producer_) = false;

  /// Per-shard watchdog heartbeats + admission hysteresis (producer-only).
  std::vector<WatchdogState> watchdog_ SCAP_GUARDED_BY(producer_);

  /// Admission priority inputs, copied from the capture config: the PPL
  /// ladder the ring watermarks mirror.
  std::vector<PriorityClass> priority_classes_;
  int default_priority_ = 0;
  int ppl_levels_ = 1;

  /// Producer-side tracer for admission/watchdog events (kRingShed,
  /// kWorkerStall) — shed packets never reach a shard kernel, so their
  /// events cannot ride the per-shard rings. Producer-only writes; the
  /// recorded/dropped totals are mirrored into the atomics below after
  /// each emit so aggregate readers never touch the ring.
  std::unique_ptr<trace::Tracer> producer_tracer_;
  std::atomic<std::uint64_t> producer_trace_recorded_{0};
  std::atomic<std::uint64_t> producer_trace_dropped_{0};

  /// Watchdog + FDIR accounting (single writer: the producer; folded into
  /// stats()/check_invariants from any thread). service_fdir adds what
  /// apply_fdir_commands reports, under its one counting rule.
  std::atomic<std::uint64_t> worker_stalls_{0};
  std::atomic<std::uint64_t> fdir_applied_installs_{0};
  std::atomic<std::uint64_t> fdir_applied_reinstalls_{0};
  std::atomic<std::uint64_t> fdir_applied_removals_{0};
  std::atomic<std::uint64_t> fdir_apply_failures_{0};
};

}  // namespace scap::kernel
