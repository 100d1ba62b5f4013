// scap::Capture — the user-level core of the Scap API (paper §3, Table 1).
//
// A Capture owns a simulated-or-real NIC and the Scap kernel datapath, and
// dispatches creation/data/termination events to user callbacks, mirroring
// the Scap stub of Figure 1.
//
// One datapath with N >= 0 worker threads (paper §4, DESIGN.md §12):
// start() builds a KernelShards layer of max(N, 1) shards — one ScapKernel
// per core with private flow-table slabs, chunk allocator, PPL state and
// event queue. Symmetric RSS keeps both directions of a flow on one shard,
// so the per-packet path takes no shared lock, and maintenance ticks ride
// with the traffic, so the counts are the same at every N and for every
// inject batching. With N >= 1 each shard has a worker thread fed through
// a lock-free SPSC ring and its own trace ring. With N == 0 (the default,
// fully deterministic — the mode benches and tests use) the injecting
// thread processes each run of packets itself and runs the callbacks
// before inject() returns, and the one shard kernel records on the
// capture-level tracer. Either way every shard kernel queues its FDIR
// filter commands in its own outbox: with zero workers the shard kernel
// owns the NIC and applies them itself, with workers the producer applies
// them at the tick cadence (KernelShards::service_fdir).
//
// Concurrency model (DESIGN.md §12): producer_mutex_ is the outer
// capability backing the shards' single-producer domain — it serializes
// inject()/inject_batch()/stop() end to end, including any spin on a full
// shard ring (and, with zero workers, the callbacks). kernel_mutex_ is the
// inner lock guarding the NIC and capture tracer against stats() readers;
// its critical sections are bounded (RSS classification, FDIR servicing,
// stats snapshot) and never run a callback, so a callback may call stats()
// without deadlocking against its producer. With zero workers the shard
// kernel, as the NIC's owner, also applies its FDIR outbox to the NIC's
// filter table and records on the capture tracer from the injecting
// thread, outside kernel_mutex_, so a traced zero-worker capture's stats()
// belongs to that thread and its callbacks. The clang
// thread-safety analysis checks all of this on every clang build
// (-Wthread-safety, errors under SCAP_WERROR).
//
// Packet sources: inject() for programmatic feeds, replay_pcap() for traces.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/hotpath.hpp"
#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"
#include "kernel/module.hpp"
#include "kernel/shard.hpp"
#include "nic/nic.hpp"
#include "packet/packet.hpp"
#include "trace/trace.hpp"

namespace scap {

/// Tunables addressable through scap_set_parameter (paper Table 1).
enum class Parameter {
  kInactivityTimeoutMs,
  kChunkSize,
  kOverlapSize,
  kFlushTimeoutMs,
  kBaseThresholdPercent,  // PPL base threshold, 0-100
  kOverloadCutoff,
  kPriorityLevels,
  kAdaptiveCutoff,     // adaptive overload control: start cutoff (0 = off)
  kAdaptiveMinCutoff,  // adaptive overload control: tightening floor
  kWorkerThreads,      // worker threads (0 = the injecting thread), pre-start
  kShardRingCapacity,  // per-shard SPSC ring slots, pre-start
  // Sharded-datapath robustness knobs (DESIGN.md §13), all pre-start:
  kRingHighWatermarkPct,  // ring admission high watermark, % of ring capacity
                          // (0 = watermark admission off, spin on full ring)
  kRingLowWatermarkPct,   // ring admission low watermark (hysteresis exit +
                          // PPL ladder base), % of ring capacity
  kStallTimeoutMs,        // worker watchdog deadline, simulated ms (0 = off)
  kStallPolicy,           // on stall: 0 = fatal (assert), 1 = degrade (shed)
};

class Capture;

/// The application's view of a stream inside a callback — the paper's
/// stream_t as handed to handlers. Wraps the event's immutable snapshot and
/// forwards per-stream control calls to the kernel that emitted the event:
/// the stream's shard kernel — flow affinity means the stream lives there
/// and nowhere else.
///
/// A StreamView only exists inside a dispatch callback, which always runs
/// with the owning kernel's serial domain held (its consumer holds the
/// shard's batch lock). The control methods assert exactly that before
/// re-entering the kernel — the C API wrappers in capi.cpp cannot carry
/// capability annotations across extern "C".
class StreamView {
 public:
  StreamView(kernel::ScapKernel& k, kernel::Event& ev) : k_(k), ev_(ev) {}

  // --- identity (sd->hdr) --------------------------------------------------
  kernel::StreamId id() const { return ev_.stream.id; }
  const FiveTuple& tuple() const { return ev_.stream.tuple; }
  kernel::Direction direction() const { return ev_.stream.dir; }
  kernel::StreamId opposite_id() const { return ev_.stream.opposite; }

  // --- status (sd->status / sd->error) ------------------------------------
  kernel::StreamStatus status() const { return ev_.stream.status; }
  bool cutoff_exceeded() const { return ev_.stream.cutoff_exceeded; }
  std::uint32_t error() const { return ev_.stream.error_bits; }

  // --- statistics (sd->stats) ----------------------------------------------
  const kernel::StreamStats& stats() const { return ev_.stream.stats; }
  std::uint64_t chunks() const { return ev_.stream.chunks_delivered; }
  Duration processing_time() const { return ev_.stream.processing_time; }

  // --- chunk data (sd->data / sd->data_len) --------------------------------
  /// Valid only until the handler returns: the chunk's buffer then goes
  /// back to the kernel's free lists and holds later chunks' bytes. Copy
  /// what must outlive the handler, or keep_chunk() to get these bytes
  /// again at the front of the next delivery.
  std::span<const std::uint8_t> data() const {
    return std::span<const std::uint8_t>(ev_.chunk.data);
  }
  std::size_t data_len() const { return ev_.chunk.data.size(); }
  std::uint32_t chunk_errors() const { return ev_.chunk.errors; }
  std::uint32_t overlap_len() const { return ev_.chunk.overlap_len; }
  std::uint64_t stream_offset() const { return ev_.chunk.stream_offset; }

  // --- per-stream control ---------------------------------------------------
  void discard();                       // scap_discard_stream
  void set_cutoff(std::int64_t bytes);  // scap_set_stream_cutoff
  void set_priority(int priority);      // scap_set_stream_priority
  bool set_parameter(Parameter p, std::int64_t value);
  void keep_chunk();                    // scap_keep_stream_chunk

  // --- packet delivery (scap_next_stream_packet) ---------------------------
  /// Next packet record of this chunk in capture order, or nullptr. Records
  /// and payloads share data()'s lifetime: valid until the handler
  /// returns, unless keep_chunk() is called.
  const kernel::PacketRecord* next_packet();
  /// Payload bytes of a packet record within this chunk.
  std::span<const std::uint8_t> packet_payload(
      const kernel::PacketRecord& rec) const;
  void rewind_packets() { pkt_cursor_ = 0; }

 private:
  friend class Capture;

  /// Dispatch callbacks run with the kernel's serial domain held (see class
  /// comment); the control methods carry that structural fact into the
  /// analysis before re-entering the kernel.
  void assert_serial() const SCAP_ASSERT_CAPABILITY(k_.serial()) {}

  kernel::ScapKernel& k_;
  kernel::Event& ev_;
  std::size_t pkt_cursor_ = 0;
  bool keep_requested_ = false;
};

using StreamHandler = std::function<void(StreamView&)>;

struct CaptureStats {
  kernel::KernelStats kernel;
  std::uint64_t nic_dropped_by_filter = 0;
  std::uint64_t events_dispatched = 0;
  // Tracing (zero/empty when enable_tracing was not called).
  bool traced = false;
  std::uint64_t trace_events_recorded = 0;
  std::uint64_t trace_events_dropped = 0;  // lost to ring wrap
  trace::MetricsRegistry metrics;
};

class Capture {
 public:
  /// scap_create(device, memory_size, reassembly_mode, need_pkts).
  /// `device` is informational (the simulated NIC stands in for hardware).
  Capture(std::string device, std::uint64_t memory_size,
          kernel::ReassemblyMode mode, bool need_pkts);
  ~Capture();

  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;

  // --- configuration (before start) ----------------------------------------
  void set_filter(const std::string& bpf);                 // scap_set_filter
  void set_cutoff(std::int64_t bytes);                     // scap_set_cutoff
  void add_cutoff_direction(std::int64_t bytes, kernel::Direction dir);
  void add_cutoff_class(std::int64_t bytes, const std::string& bpf);
  void set_worker_threads(int n);
  bool set_parameter(Parameter p, std::int64_t value);
  void set_use_fdir(bool on) { config_.use_fdir = on; }
  void set_max_streams(std::size_t n) { config_.max_streams = n; }
  void set_overlap_policy(kernel::OverlapPolicy p) {
    config_.defaults.policy = p;
  }
  void set_defragment(bool on) { config_.defragment_ip = on; }
  /// Per-shard SPSC ring slots (with workers; rounded up to a power of
  /// two). Also reachable as Parameter::kShardRingCapacity.
  void set_shard_ring_capacity(std::size_t slots) {
    ring_capacity_ = slots > 0 ? slots : 1;
  }

  /// Turn on event tracing (DESIGN.md §10) with one fixed-capacity ring per
  /// core. Must be called before start(): the trace's conservation laws
  /// require the tracer to see every packet. With workers each shard
  /// kernel gets its own single-ring tracer and the capture-level tracer
  /// (tracer()) carries only the producer-side NIC events; stats() presents
  /// the merged totals. With SCAP_TRACE=OFF builds the tracers still exist
  /// but the instrumentation sites compile to nothing, so the rings stay
  /// empty.
  void enable_tracing(std::size_t ring_capacity = 1 << 16);

  /// The capture-level tracer, or nullptr: the whole trace with zero
  /// workers, the NIC-event trace with workers (per-shard kernel traces
  /// live on shards()->tracer(i)). The pointee is SCAP_PT_GUARDED_BY
  /// (kernel_mutex_): the producer records NIC events holding that mutex,
  /// so dereference only after stop(). The raw pointer returned here
  /// escapes the analysis — treat it as borrowed under the same rule.
  trace::Tracer* tracer() const { return tracer_.get(); }

  // --- handlers --------------------------------------------------------------
  void dispatch_creation(StreamHandler handler);
  void dispatch_data(StreamHandler handler);
  void dispatch_termination(StreamHandler handler);

  // --- multiple applications (§5.6) -----------------------------------------
  /// Attach an additional application sharing this capture. Stream
  /// reassembly runs once in the kernel; each application receives only the
  /// streams matching its BPF filter, through its own handlers. Requirement
  /// merging is best-effort as in the paper: the kernel keeps a stream if
  /// at least one application wants it. Returns the application index.
  /// When no application is attached, the dispatch_* handlers above act as
  /// the single implicit application receiving everything.
  struct AppHandlers {
    StreamHandler on_created;
    StreamHandler on_data;
    StreamHandler on_terminated;
  };
  int add_application(const std::string& bpf_filter, AppHandlers handlers);

  // --- capture lifecycle ------------------------------------------------------
  /// Instantiate NIC + shards and start the worker threads, if any.
  void start() SCAP_EXCLUDES(kernel_mutex_, producer_mutex_);

  /// Feed one packet (timestamp taken from the packet): inject_batch() of
  /// one.
  void inject(const Packet& pkt) SCAP_EXCLUDES(kernel_mutex_, producer_mutex_);

  /// Feed a batch of packets. Between maintenance ticks the NIC classifies
  /// each packet in order and stages the survivors; the shards then get
  /// the run at once — processed right here with zero workers (one
  /// handle_batch, events dispatched before returning), pushed onto the
  /// rings otherwise. FDIR filters installed while a run is processed
  /// take effect from the next run. Results land in stats().
  void inject_batch(std::span<const Packet> pkts)
      SCAP_EXCLUDES(kernel_mutex_, producer_mutex_);

  /// Replay a pcap file through the capture in inject_batch-sized batches.
  /// Returns packets injected. (inject()/inject_batch() are the *user-API*
  /// boundary, deliberately outside the SCAP_HOT closure: they throw on
  /// misuse and take the documented producer/kernel locks. The purity
  /// lattice anchors kernel-side — ScapKernel::handle_packet/handle_batch
  /// and the KernelShards submit/worker path, DESIGN.md §14.)
  SCAP_COLD std::uint64_t replay_pcap(const std::string& path)
      SCAP_EXCLUDES(kernel_mutex_, producer_mutex_);

  /// Flush all remaining streams, dispatch final events, join workers.
  SCAP_COLD void stop() SCAP_EXCLUDES(kernel_mutex_, producer_mutex_);

  /// Snapshot of kernel + NIC + dispatch counters, safe to call from
  /// inside a dispatch callback: it reads the shards' per-batch snapshots
  /// (published before each event drain) and takes only kernel_mutex_
  /// (bounded producer critical sections) for the NIC counters. With
  /// workers it is also safe from a monitoring thread while the capture
  /// runs (see the concurrency notes above for zero workers).
  CaptureStats stats() const SCAP_EXCLUDES(kernel_mutex_);

  /// Conservation suite over every shard plus the shard-aggregated stats.
  /// Returns "" when every law holds. Locks each shard: not from inside a
  /// dispatch callback.
  std::string check_invariants() SCAP_EXCLUDES(kernel_mutex_);

  /// Direct kernel/NIC access for single-threaded drivers (tests, benches,
  /// chaos_run). These assert the serialization capabilities rather than
  /// take the lock — never call them while workers are live. kernel() is
  /// the capture's kernel when it has exactly one shard, as a zero-worker
  /// capture does (with more, use shards()).
  kernel::ScapKernel& kernel() {
    assert_serialized();
    SCAP_ASSERT(has_kernel(), "kernel() needs a started one-shard capture");
    return shards_->kernel(0);
  }
  bool has_kernel() const {
    return shards_ != nullptr && shards_->num_shards() == 1;
  }
  /// The datapath, or nullptr before start(). KernelShards is internally
  /// synchronized; see its own locking notes.
  kernel::KernelShards* shards() { return shards_.get(); }
  nic::Nic& nic() {
    assert_serialized();
    return *nic_;
  }
  const std::string& device() const { return device_; }
  int worker_threads() const { return worker_threads_; }
  bool started() const { return started_; }

 private:
  friend class StreamView;

  /// Claim kernel_mutex_ structurally for the single-threaded callers of
  /// kernel()/nic(). Zero runtime cost — the assertion exists for the
  /// thread-safety analysis; the datapath takes the real locks.
  void assert_serialized() const SCAP_ASSERT_CAPABILITY(kernel_mutex_) {}

  /// Dispatch one event from kernel `k`, recording kEventDispatched on the
  /// kernel's own tracer when tracing. Runs the user handlers, then returns
  /// the chunk accounting to `k`.
  void dispatch_event_on(kernel::ScapKernel& k, kernel::Event& ev)
      SCAP_REQUIRES(k.serial());
  /// True when a packet at `now` that passed the NIC must wait for a
  /// maintenance tick before it reaches its shard.
  bool tick_due(Timestamp now) const SCAP_REQUIRES(producer_mutex_) {
    return !ticks_started_ || (config_.expiry_interval.ns() > 0 &&
                               now.ns() - last_tick_.ns() >=
                                   config_.expiry_interval.ns());
  }
  /// Called when tick_due(now) for `now`, the timestamp of a packet that
  /// passed the NIC: push in-band maintenance markers for every
  /// expiry_interval boundary crossed up to `now` (before the packets that
  /// carry those timestamps — the ordering that makes shard expiry equal a
  /// single-core replay), and apply the threaded shards' FDIR outboxes and
  /// expire the NIC's filters at the same cadence (KernelShards::service_fdir).
  void advance_ticks(Timestamp now)
      SCAP_REQUIRES(producer_mutex_, shards_->producer());

  std::string device_;
  kernel::KernelConfig config_;
  int worker_threads_ = 0;   // immutable once start() ran
  bool started_ = false;     // driver-thread only
  Timestamp last_ts_;        // driver/producer thread only

  StreamHandler on_created_;
  StreamHandler on_data_;
  StreamHandler on_terminated_;
  std::vector<AppHandlers> apps_;

  // The pointees are shared with stats() readers; the pointers themselves
  // are written once in start() (before any worker exists) and cleared
  // never, so reading the pointer is always safe while every dereference
  // needs kernel_mutex_.
  std::unique_ptr<nic::Nic> nic_ SCAP_PT_GUARDED_BY(kernel_mutex_);
  std::unique_ptr<trace::Tracer> tracer_ SCAP_PT_GUARDED_BY(kernel_mutex_);
  std::size_t trace_capacity_ = 0;  // 0 = tracing off
  std::size_t ring_capacity_ = 4096;  // per-shard SPSC ring slots

  // The datapath. shards_ is written once in start() and is internally
  // synchronized (per-shard locks + snapshots), so it carries no guard
  // annotation; the producer-only entry points require its SerialDomain,
  // which producer_mutex_ backs.
  std::unique_ptr<kernel::KernelShards> shards_;

  /// Ring robustness policy (DESIGN.md §13), staged by set_parameter and
  /// translated into KernelShards::Options at start() (percentages become
  /// ring slots once the ring capacity is final).
  /// Guarded by producer_mutex_ — the same capability that orders every
  /// producer-side decision these knobs feed.
  struct RingPolicy {
    int high_watermark_pct = 0;  // 0 = watermark admission disabled
    int low_watermark_pct = 0;
    std::int64_t stall_timeout_ms = 0;  // 0 = watchdog disabled
    kernel::StallPolicy stall_policy = kernel::StallPolicy::kDegrade;
  };
  RingPolicy ring_policy_ SCAP_GUARDED_BY(producer_mutex_);
  mutable base::Mutex producer_mutex_;  // outer; never taken under kernel_mutex_
  mutable base::Mutex kernel_mutex_;    // inner; NIC + capture tracer
  Timestamp last_tick_ SCAP_GUARDED_BY(producer_mutex_);
  bool ticks_started_ SCAP_GUARDED_BY(producer_mutex_) = false;
  /// The current run's NIC survivors, pointing into the caller's batch.
  std::vector<kernel::SteeredPacket> staged_ SCAP_GUARDED_BY(producer_mutex_);
  std::atomic<std::uint64_t> events_dispatched_{0};
};

}  // namespace scap
