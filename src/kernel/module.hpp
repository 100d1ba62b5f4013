// The Scap kernel module (paper §4, §5): flow tracking, in-kernel TCP
// stream reassembly, cutoff enforcement with FDIR offload, prioritized
// packet loss, event generation, and inactivity expiry.
//
// FDIR offload is split between the kernel and the NIC's owner: the kernel
// decides which cutoff filters to install, remove and re-install, and
// queues them as FdirCommands in its outbox; it never writes one to the
// NIC. A kernel built with a Nic* is that NIC's owner and applies its own
// outbox; a shard kernel's is applied by the producer (DESIGN.md §12).
//
// This class is the software-interrupt handler of Figure 2: it consumes
// decoded packets (one instance may serve multiple simulated cores — the
// `core` argument selects the event queue, mirroring the per-core kernel
// threads) and produces creation/data/termination events carrying
// reassembled chunks. It performs no cycle accounting itself; the returned
// PacketOutcome tells the simulation driver exactly which operations
// happened so their costs can be charged in the right context.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "base/assert.hpp"
#include "base/clock.hpp"
#include "base/hotpath.hpp"
#include "base/mutex.hpp"
#include "base/ring.hpp"
#include "kernel/defrag.hpp"
#include "kernel/events.hpp"
#include "kernel/flow_table.hpp"
#include "kernel/memory.hpp"
#include "kernel/ppl.hpp"
#include "kernel/stats_determinism.hpp"
#include "nic/nic.hpp"
#include "packet/bpf.hpp"
#include "packet/packet.hpp"
#include "trace/trace.hpp"

namespace scap::kernel {

struct CutoffClass {
  BpfProgram filter;
  std::int64_t cutoff_bytes = -1;
};

struct PriorityClass {
  BpfProgram filter;
  int priority = 0;
};

struct KernelConfig {
  /// Shared stream-buffer size (chunk memory), paper's memory_size.
  std::uint64_t memory_size = 1ull << 30;

  /// Defaults inherited by new streams (mode, chunk size, cutoff, ...).
  StreamParams defaults;

  /// Keep per-packet records inside chunks (scap_next_stream_packet).
  bool need_pkts = false;

  PplConfig ppl;

  /// Offload cutoff enforcement to NIC FDIR filters: the kernel queues
  /// them in its outbox for the NIC's owner to apply.
  bool use_fdir = false;
  Duration fdir_base_timeout = Duration::from_sec(10);

  /// Dynamic load balancing (§2.4): when the core a new stream RSS-hashed
  /// to already holds more than `imbalance_threshold` of all active
  /// streams, steer the stream to the least-loaded core with FDIR filters.
  bool dynamic_load_balance = false;
  double imbalance_threshold = 0.25;
  std::size_t imbalance_min_streams = 64;  // don't rebalance tiny loads

  /// Flow-record budget; 0 = unlimited (grow until host memory).
  std::size_t max_streams = 0;

  /// Seed for the flow table's tuple hash. The default is fixed for
  /// reproducible experiments; randomize it (the paper picks a random hash
  /// at module-init time, §5.2) to defeat precomputed-collision attacks or
  /// to probe hash-collision resistance in benches.
  std::uint64_t flow_hash_seed = 0x5ca9'f10a'7ab1'e000ULL;

  /// How often the idle-stream / filter-timeout scan runs.
  Duration expiry_interval = Duration::from_sec(1);

  /// Drop packets whose IP/transport checksums fail verification (counted
  /// as pkts_bad_checksum). Off by default: trace replays and snapped
  /// captures legitimately carry unverifiable checksums.
  bool verify_checksums = false;

  /// Socket-level BPF filter (scap_set_filter); empty matches everything.
  BpfProgram filter;

  /// Per-direction cutoff overrides (scap_add_cutoff_direction); -1 unset.
  std::int64_t cutoff_per_dir[2] = {-1, -1};

  /// Per-traffic-class cutoffs (scap_add_cutoff_class), first match wins.
  std::vector<CutoffClass> cutoff_classes;

  /// Per-traffic-class priorities (applications normally set priorities
  /// from the creation callback; classes let configuration-only consumers
  /// such as the benches do the same declaratively). First match wins.
  std::vector<PriorityClass> priority_classes;

  /// Per-application BPF filters for shared capture (§5.6); empty = one
  /// implicit application receiving everything.
  std::vector<BpfProgram> app_filters;

  /// Emit kCreated events (flow-stats apps often only want termination).
  bool creation_events = true;

  /// Reassemble IPv4 fragments before stream processing (§2.3: strict-mode
  /// protection against IP-fragmentation evasion). Fragments are held until
  /// their datagram completes, then processed as one packet.
  bool defragment_ip = false;

  int num_cores = 1;
};

enum class Verdict : std::uint8_t {
  kInvalid,         // not a decodable IPv4 packet
  kFragmentHeld,    // IP fragment buffered, datagram not yet complete
  kFilteredBpf,     // rejected by the socket filter
  kIgnored,         // e.g. FIN/RST for an unknown stream
  kControl,         // TCP control packet consumed for stream lifecycle
  kStored,          // payload delivered to a chunk
  kCutoffDiscard,   // beyond stream cutoff (kernel-level discard)
  kDupDiscard,      // entirely duplicate segment
  kPplDrop,         // prioritized packet loss
  kNoMemDrop,       // chunk buffer exhausted
  kNoRecordDrop,    // stream-record allocation failed
  kChecksumDrop,    // checksum verification failed (verify_checksums)
  kBuffered,        // consumed without in-order delivery (OOO hold / empty)
};

inline constexpr std::size_t kNumVerdicts =
    static_cast<std::size_t>(Verdict::kBuffered) + 1;

/// Stable lowercase name for reports (chaos_run, conservation checker).
const char* to_string(Verdict v);

struct PacketOutcome {
  Verdict verdict = Verdict::kIgnored;
  std::uint64_t stored_bytes = 0;
  int events = 0;
  bool created_stream = false;
  bool terminated_stream = false;
  int fdir_updates = 0;
  /// Stream the packet resolved to (kInvalidStreamId when it never reached
  /// a record: invalid, filtered, ignored, held fragments, failed creates).
  StreamId stream_id = kInvalidStreamId;
};

/// Kernel counters. Every field is one row of the counter table
/// (stats_determinism.inc), which documents it.
struct KernelStats {
#define SCAP_STATS_FIELD(name, combine, determinism) \
  StatCell<StatCombine::combine>::type name =        \
      StatCell<StatCombine::combine>::kInit;
#define SCAP_STATS_ARRAY(name, combine, determinism, kernel_size, \
                         c_capacity)                              \
  StatCell<StatCombine::combine>::type name[kernel_size] = {};
#include "kernel/stats_determinism.inc"

  /// Fold another shard's snapshot into this one, row by row with each
  /// row's combine rule. Every conservation law over the counters is
  /// linear, so the merge satisfies check_conservation whenever each
  /// addend does.
  void merge(const KernelStats& other);

  /// Verify the counter-conservation laws over this snapshot: every packet
  /// that entered the kernel landed in exactly one verdict bucket, each
  /// drop/delivery scalar matches its verdict histogram entry, the
  /// parse-error taxonomy sums to pkts_invalid, the record pool balances
  /// against live streams, and stream lifecycle counters reconcile.
  /// Returns "" when every law holds, else a description of the first
  /// violation. Pool/stream checks need the mirrored fields, so call this
  /// on the result of ScapKernel::stats() (or use check_invariants()).
  std::string check_conservation() const;

  // Whole-snapshot equality: the trace/replay cross-check asserts that a
  // traced and an untraced run of the same input agree on every counter.
  friend bool operator==(const KernelStats&, const KernelStats&) = default;
};

/// A cutoff-filter request from a kernel (DESIGN.md §12). No kernel writes
/// cutoff filters: installs and removals go into the kernel's own bounded
/// outbox, and whoever owns the NIC applies them with apply_fdir_commands —
/// the kernel itself when it was built with a Nic*, else the producer in
/// KernelShards::service_fdir. A full outbox drops the command: FDIR
/// offload is an optimization (the kernel-level cutoff still discards in
/// software), so a dropped install counts its filters as install failures
/// and the stream retries once the filter lifetime it asked for has passed.
struct FdirCommand {
  enum class Kind : std::uint8_t { kInstallCutoff, kRemove };
  Kind kind = Kind::kInstallCutoff;
  FiveTuple tuple{};
  /// kInstallCutoff: absolute filter expiry (now + the stream's
  /// doubling fdir_timeout).
  Timestamp expires{};
  /// kInstallCutoff: re-install after a filter timeout (doubled timeout),
  /// counted in fdir_reinstalls, not fdir_installs.
  bool reinstall = false;
  /// kRemove: also drop the reverse-direction filter (set when no
  /// opposite-direction stream record remains to clean it up).
  bool also_reversed = false;
};

using FdirCommandQueue = MpscQueue<FdirCommand>;

/// What applying FDIR commands did to the NIC, under the one counting
/// rule: an install or reinstall counts when the NIC accepts at least one
/// of its filters, every filter the NIC rejects is one install failure,
/// and removals count the filters actually taken out.
struct FdirApplied {
  std::uint64_t installs = 0;
  std::uint64_t reinstalls = 0;
  std::uint64_t removals = 0;
  std::uint64_t install_failures = 0;
};

/// The one FDIR applier: pop every command in `outbox` (its single
/// consumer) and apply it to `nic` in queue order. Each rejected filter is
/// recorded on the NIC's tracer as kFdirInstall a16=2, stream id 0, at `now`.
FdirApplied apply_fdir_commands(FdirCommandQueue& outbox, nic::Nic& nic,
                                Timestamp now);

/// Expire `nic`'s timed-out filters and return how many came out, each
/// recorded on the NIC's tracer as kFdirEvict a16=1, stream id 0. Each NIC
/// has exactly one caller of this: its owner.
std::size_t expire_fdir_filters(nic::Nic& nic, Timestamp now);

class ScapKernel {
 public:
  explicit ScapKernel(KernelConfig config, nic::Nic* nic = nullptr);

  /// The kernel's serialization domain (DESIGN.md §11). Every entry point
  /// below is annotated SCAP_REQUIRES(serial_): callers must be the only
  /// execution context inside the kernel. The capture acquires it together
  /// with kernel_mutex_ in threaded mode (base::SerialGuard right after the
  /// MutexLock); single-threaded drivers (tests, chaos_run, benches)
  /// satisfy it trivially and are compiled without -Wthread-safety.
  base::SerialDomain& serial() const SCAP_RETURN_CAPABILITY(serial_) {
    return serial_;
  }

  /// Process one packet in softirq context on `core`.
  SCAP_HOT PacketOutcome handle_packet(const Packet& pkt, Timestamp now,
                                       int core = 0) SCAP_REQUIRES(serial_);

  /// Batched ingest: process `pkts` on `core`, amortizing the maintenance
  /// check (run once, at `now`) and prefetching each packet's flow-table
  /// probe window two packets ahead of its lookup. Each packet is processed
  /// at its own timestamp. When `outcomes` is non-empty it receives the
  /// per-packet outcome (outcomes.size() >= pkts.size()); the return value
  /// aggregates the batch (verdict = last packet's, counters summed).
  /// handle_batch({&pkt, 1}, now, core) is behaviourally identical to
  /// handle_packet(pkt, now, core) when now == pkt.timestamp().
  SCAP_HOT PacketOutcome handle_batch(std::span<const Packet> pkts,
                                      Timestamp now, int core = 0,
                                      std::span<PacketOutcome> outcomes = {})
      SCAP_REQUIRES(serial_);

  /// Run the periodic maintenance pass (inactivity expiry, FDIR timeout
  /// service, flush timeouts). Called automatically from handle_packet every
  /// expiry_interval; exposed for drivers that need explicit control.
  SCAP_COLD void run_maintenance(Timestamp now) SCAP_REQUIRES(serial_);

  /// Flush + terminate every remaining stream (end of capture).
  SCAP_COLD void terminate_all(Timestamp now) SCAP_REQUIRES(serial_);

  /// Event access (per core). The queues are the worker handoff point: in
  /// threaded mode workers pop them under the same serialization the
  /// producer pushes under (capture's kernel_mutex_ + this domain).
  EventQueue& events(int core) SCAP_REQUIRES(serial_) {
    return queues_[static_cast<std::size_t>(core)];
  }

  /// The consumer hands each data event's chunk back once the application
  /// is done with it (paper §5.3): its budget and its buffers return to the
  /// allocator and the event's chunk is left empty, so releasing the same
  /// event again changes nothing. The rvalue overload serves
  /// `release_chunk(q.pop())`.
  void release_chunk(Event& ev) SCAP_REQUIRES(serial_) { recycle_chunk(ev); }
  void release_chunk(Event&& ev) SCAP_REQUIRES(serial_) { recycle_chunk(ev); }

  // --- runtime control (backing for the Scap API) -------------------------
  StreamRecord* find_stream(StreamId id) SCAP_REQUIRES(serial_) {
    return table_.by_id(id);
  }
  bool set_stream_cutoff(StreamId id, std::int64_t cutoff)
      SCAP_REQUIRES(serial_);
  bool set_stream_priority(StreamId id, int priority) SCAP_REQUIRES(serial_);
  bool discard_stream(StreamId id) SCAP_REQUIRES(serial_);

  /// Re-attach a delivered chunk so the next delivery contains it too
  /// (scap_keep_stream_chunk). Transfers the chunk's memory accounting back
  /// to the stream; returns false if the stream no longer exists.
  bool keep_stream_chunk(StreamId id, Chunk&& chunk, std::uint32_t alloc)
      SCAP_REQUIRES(serial_);

  /// Check every kernel invariant (counter conservation, pool balance, PPL
  /// watermark monotonicity) against the current state. Returns "" when all
  /// hold, else the first violation. Always compiled; the SCAP_INVARIANT
  /// wiring in run_maintenance()/terminate_all() makes it fatal in
  /// Debug/test builds and a no-op in Release.
  SCAP_COLD std::string check_invariants() const SCAP_REQUIRES(serial_);

  /// Attach the event tracer (DESIGN.md §10). Must happen before the first
  /// packet: the tracer's event counts double as conservation counters
  /// (check_invariants proves count(packet_verdict) == pkts_seen etc.), so
  /// a mid-run attach would trip the next maintenance tick's invariant
  /// check. Also wires the PPL controller. Pass nullptr to detach is not
  /// supported for the same reason.
  void set_tracer(trace::Tracer* tracer) SCAP_REQUIRES(serial_) {
    SCAP_ASSERT(stats_.pkts_seen == 0,
                "tracer must attach before the first packet");
    tracer_ = tracer;
    ppl_.set_tracer(tracer);
  }
  trace::Tracer* tracer() const { return tracer_; }

  /// The FDIR commands this kernel queued and nobody has applied yet; null
  /// unless it programs filters (use_fdir or dynamic_load_balance). Set at
  /// construction. A kernel built with a Nic* applies it itself; otherwise
  /// the NIC's owner drains it (KernelShards::service_fdir) from its own
  /// thread — the queue's one consumer.
  FdirCommandQueue* fdir_outbox() const { return fdir_outbox_.get(); }

  const KernelStats& stats() const SCAP_REQUIRES(serial_) {
    // Pool occupancy is owned by the flow table; mirror it on read so the
    // hot path never maintains these counters. Same for the adaptive
    // controller, whose state lives in Ppl.
    const RecordPoolStats pool = table_.pool_stats();
    stats_.pool_capacity = pool.capacity;
    stats_.pool_free = pool.free;
    stats_.pool_slabs = pool.slabs;
    stats_.pool_recycled = pool.recycled_total;
    stats_.streams_active = table_.size();
    const PplControllerState& ctl = ppl_.controller();
    stats_.ppl_effective_cutoff = ppl_.effective_cutoff();
    stats_.ppl_overload_active = ctl.overload ? 1 : 0;
    stats_.ppl_overload_entries = ctl.overload_entries;
    stats_.ppl_overload_exits = ctl.overload_exits;
    stats_.ppl_tightenings = ctl.tightenings;
    stats_.ppl_relaxations = ctl.relaxations;
    return stats_;
  }
  const KernelConfig& config() const { return config_; }
  ChunkAllocator& allocator() { return allocator_; }
  FlowTable& table() { return table_; }
  const Ppl& ppl() const { return ppl_; }
  nic::Nic* nic() { return nic_; }
  const IpDefragmenter& defragmenter() const { return defrag_; }

 private:
  /// Outbox slots: a NIC owner applies the outbox when it fills, so only
  /// kernels whose NIC is owned elsewhere ever drop a command.
  static constexpr std::size_t kFdirOutboxCapacity = 1024;

  /// This kernel owns its NIC and applies its own FDIR commands.
  bool owns_fdir() const { return nic_ != nullptr && fdir_outbox_ != nullptr; }

  void recycle_chunk(Event& ev) SCAP_REQUIRES(serial_) {
    allocator_.release(ev.chunk_alloc);
    ev.chunk_alloc = 0;
    allocator_.recycle(ev.chunk.data);
    allocator_.recycle(ev.chunk.packets);
  }

  /// handle_packet minus the maintenance-timer check (the batch path runs
  /// that once per batch).
  PacketOutcome handle_one(const Packet& pkt, Timestamp now, int core)
      SCAP_REQUIRES(serial_);

  StreamRecord* lookup_or_create(const Packet& pkt, Timestamp now, int core,
                                 PacketOutcome& outcome)
      SCAP_REQUIRES(serial_);
  void resolve_params(StreamRecord& rec) SCAP_REQUIRES(serial_);
  std::uint64_t app_mask_for(const FiveTuple& tuple) const;
  void emit_created(StreamRecord& rec) SCAP_REQUIRES(serial_);
  void emit_data(StreamRecord& rec, Chunk&& chunk, bool transfer_block)
      SCAP_REQUIRES(serial_);
  void emit_terminated(StreamRecord& rec) SCAP_REQUIRES(serial_);
  StreamSnapshot snapshot(const StreamRecord& rec) const;
  void ensure_block(StreamRecord& rec) SCAP_REQUIRES(serial_);
  void handle_payload(StreamRecord& rec, const Packet& pkt, Timestamp now,
                      PacketOutcome& outcome) SCAP_REQUIRES(serial_);
  void trigger_cutoff(StreamRecord& rec, Timestamp now,
                      PacketOutcome& outcome) SCAP_REQUIRES(serial_);
  /// Close a stream: flush, release its memory, queue its filter removal
  /// and emit the termination event. The record stays in the table.
  void close_stream(StreamRecord& rec, StreamStatus status, Timestamp now)
      SCAP_REQUIRES(serial_);
  /// close_stream, then take the record out of the table.
  void terminate(StreamRecord& rec, StreamStatus status, Timestamp now,
                 PacketOutcome* outcome) SCAP_REQUIRES(serial_);
  /// Give back the open chunk's block: no more data will be written to it.
  void release_block(StreamRecord& rec) SCAP_REQUIRES(serial_);
  void install_fdir(StreamRecord& rec, Timestamp now, bool reinstall,
                    PacketOutcome& outcome) SCAP_REQUIRES(serial_);
  /// Queue one FDIR command. A NIC owner makes room by applying the outbox
  /// first, so it never drops one; false when the command was dropped.
  bool queue_fdir(const FdirCommand& cmd, Timestamp now)
      SCAP_REQUIRES(serial_);
  /// NIC owner only: apply the outbox to nic_ and count the outcome.
  void apply_fdir_outbox(Timestamp now) SCAP_REQUIRES(serial_);
  void flush_chunks(StreamRecord& rec, std::uint32_t error_bits)
      SCAP_REQUIRES(serial_);

  /// Steer a freshly created stream away from an overloaded core (§2.4).
  void maybe_rebalance(StreamRecord& rec, Timestamp now)
      SCAP_REQUIRES(serial_);

  /// Post-defragmentation continuation of handle_packet.
  PacketOutcome handle_decoded(const Packet& pkt, Timestamp now, int core,
                               PacketOutcome& outcome) SCAP_REQUIRES(serial_);

  KernelConfig config_;
  /// The serialization domain every entry point requires (see serial()).
  /// mutable so const observers (stats, check_invariants) can name it.
  mutable base::SerialDomain serial_;
  /// NIC pointee is FDIR/RSS state mutated by the kernel: only touch it
  /// from inside the serial domain. Reading the pointer itself (nic())
  /// is free — it is set once at construction.
  nic::Nic* nic_ SCAP_PT_GUARDED_BY(serial_);
  ChunkAllocator allocator_;
  FlowTable table_;
  Ppl ppl_;
  std::vector<EventQueue> queues_;
  // mutable: stats() mirrors pool occupancy into the struct on read.
  mutable KernelStats stats_;
  Timestamp last_maintenance_;
  // Ordered by StreamId on purpose: run_maintenance walks this set and the
  // resulting flush order is observable (chunk events, traces), so it must
  // be a function of stream identity, not of hash-bucket layout.
  std::set<StreamId> flush_watch_;  // streams with flush timeouts
  std::vector<std::int64_t> core_streams_;    // active streams per core
  IpDefragmenter defrag_;
  /// Per-core trace rings are recorded into from the serial domain only;
  /// the pointer is set once (set_tracer) before the first packet.
  trace::Tracer* tracer_ SCAP_PT_GUARDED_BY(serial_) = nullptr;
  /// FDIR commands awaiting the NIC's owner (fdir_outbox()). Pushed from
  /// the serial domain only; popped by the one applier.
  std::unique_ptr<FdirCommandQueue> fdir_outbox_;
};

}  // namespace scap::kernel
