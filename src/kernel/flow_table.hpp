// Flow table: directional stream records with LRU-ordered inactivity expiry
// (paper §5.2).
//
// Layout (fast path, see DESIGN.md "Fast-path memory layout"): a single
// flat, power-of-two, linear-probing hash table keyed by FiveTuple. Each
// slot caches the key's 64-bit seeded hash next to the record pointer, so
// probing touches one contiguous array and compares 8-byte hashes before
// ever dereferencing a record. Deletion is tombstone-free: the probe window
// is repaired by backward shifting, so load never degrades over time. A
// second flat table indexes records by StreamId. The records themselves
// live in a slab-backed RecordPool (record_pool.hpp) — pointers handed out
// by find()/create() remain stable across table growth and are invalidated
// only by remove()/eviction/expiry of that same record.
//
// Lookups use a seeded hash (per-table seed, plumbed from KernelConfig so
// benches can randomize it; attackers cannot precompute bucket collisions —
// the paper picks a random hash function at module-init time for the same
// reason). The access list the paper describes — active streams sorted by
// last access, newest first — is the intrusive LRU here: packet arrival
// moves the record to the front; expiry walks from the tail. When the
// record budget is exhausted, the policy from §6.4 applies: the oldest
// stream is evicted so that newer streams can always be tracked (no static
// limit like Libnids/Stream5).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "base/function_ref.hpp"
#include "base/hash.hpp"
#include "base/hotpath.hpp"
#include "kernel/reassembly.hpp"
#include "kernel/stream.hpp"

namespace scap::kernel {

struct StreamRecord;

/// Every field of a StreamRecord but its reassembler: what RecordPool
/// value-initializes each time it hands a record slot out.
struct StreamFields {
  StreamId id = kInvalidStreamId;
  FiveTuple tuple;
  std::uint64_t tuple_hash = 0;  // seeded hash of `tuple`, cached at create
  Direction dir = Direction::kOrig;
  StreamId opposite = kInvalidStreamId;
  StreamStatus status = StreamStatus::kActive;
  HandshakeState handshake = HandshakeState::kNone;
  std::uint32_t error_bits = 0;
  StreamStats stats;
  StreamParams params;

  bool cutoff_exceeded = false;
  bool discard_requested = false;  // scap_discard_stream()
  // Cutoff filters were requested for this tuple (or steering filters
  // installed), so closing the stream queues their removal.
  bool fdir_installed = false;
  Duration fdir_timeout = Duration::from_sec(0);
  // Expiry of the last filters the kernel asked for: a cutoff discard at
  // or after it re-installs with a doubled timeout (paper §5.5).
  Timestamp fdir_expires;

  // Memory accounting: bytes reserved for the open chunk.
  std::uint32_t chunk_alloc = 0;
  // Accounting carried by a kept chunk (scap_keep_stream_chunk).
  std::uint32_t kept_alloc = 0;

  // Worker-side bookkeeping mirrored into snapshots.
  std::uint64_t chunks_delivered = 0;
  Duration processing_time = Duration(0);

  Timestamp created_at;
  Timestamp last_access;
  Timestamp last_flush;  // last data-event emission (flush timeout basis)

  // Intrusive LRU links (front = most recently touched).
  StreamRecord* lru_prev = nullptr;
  StreamRecord* lru_next = nullptr;
};

/// Kernel-side record for one stream direction (the paper's stream_t).
struct StreamRecord : StreamFields {
  /// Lives in the record slab with the rest of the record and outlives
  /// each stream in the slot: the kernel resets it in place for every new
  /// stream (lookup_or_create), keeping its grown buffers.
  TcpReassembler reasm;
};

/// Snapshot of RecordPool occupancy (mirrored into KernelStats).
struct RecordPoolStats {
  std::uint64_t capacity = 0;   // records across all slabs
  std::uint64_t free = 0;       // records on the freelist
  std::uint64_t slabs = 0;
  std::uint64_t acquired_total = 0;
  std::uint64_t recycled_total = 0;  // acquires served by a reused record
  std::uint64_t acquire_failures = 0;  // injected allocation failures
};

class RecordPool;

class FlowTable {
 public:
  static constexpr std::uint64_t kDefaultSeed = 0x5ca9'f10a'7ab1'e000ULL;

  /// `max_records`: record budget; 0 means unlimited. `seed` randomizes the
  /// hash (defaults to a fixed value for reproducible experiments).
  explicit FlowTable(std::size_t max_records = 0,
                     std::uint64_t seed = kDefaultSeed);

  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;
  ~FlowTable();

  /// Find the record for a directional tuple, or nullptr.
  SCAP_HOT StreamRecord* find(const FiveTuple& tuple);

  /// Create a record for a tuple. If the budget is exhausted, the least
  /// recently used record is evicted first and handed to `on_evict`.
  /// Always returns a valid record: with max_records > 0 an eviction victim
  /// necessarily exists once the budget is reached, and with max_records ==
  /// 0 the table grows without bound. (Creating a tuple that is already
  /// present inserts a second record for it; callers are expected to
  /// find() first, as the kernel's lookup_or_create does.)
  StreamRecord* create(const FiveTuple& tuple, Timestamp now,
                       FunctionRef<void(StreamRecord&)> on_evict);

  StreamRecord* by_id(StreamId id);

  /// Move to the front of the access list and update last_access.
  SCAP_HOT void touch(StreamRecord& rec, Timestamp now);

  /// Remove a record (termination). Invalidates the pointer.
  void remove(StreamRecord& rec);

  /// Invoke `on_expire` for every record idle since before its own
  /// inactivity timeout, oldest first, and remove it afterwards.
  void expire_idle(Timestamp now, FunctionRef<void(StreamRecord&)> on_expire);

  std::size_t size() const { return size_; }
  std::uint64_t created_total() const { return created_total_; }
  std::uint64_t evicted_total() const { return evicted_total_; }

  /// Oldest record (tail of the access list), or nullptr.
  StreamRecord* oldest() { return lru_tail_; }

  /// Seeded hash of a tuple — the value cached in slots and records.
  SCAP_HOT std::uint64_t hash_of(const FiveTuple& t) const {
    return hash_tuple(t, seed_);
  }

  /// Prefetch the probe window for a tuple hash (batched ingest runs this
  /// a couple of packets ahead of the lookup).
  SCAP_HOT void prefetch(std::uint64_t hash) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[hash & mask_]);
#else
    (void)hash;
#endif
  }

  RecordPoolStats pool_stats() const;

  /// Slots inspected by the most recent find() — the probe-length sample
  /// the tracer's flow_probe_len histogram records (DESIGN.md §10). A
  /// direct hit or an immediately-empty slot both count as 1.
  std::size_t last_probe_len() const { return last_probe_len_; }

 private:
  struct Slot {
    StreamRecord* rec = nullptr;  // nullptr = empty
    std::uint64_t hash = 0;
  };

  void lru_unlink(StreamRecord& rec);
  void lru_push_front(StreamRecord& rec);

  void insert_slot(StreamRecord* rec, std::uint64_t hash);
  void erase_tuple_slot(std::size_t i);
  void grow_tuple_table();
  void insert_id(StreamRecord* rec);
  void erase_id(StreamId id);
  void grow_id_table();

  std::size_t max_records_;
  std::uint64_t seed_;
  StreamId next_id_ = 1;
  std::uint64_t created_total_ = 0;
  std::uint64_t evicted_total_ = 0;
  std::size_t size_ = 0;
  std::size_t last_probe_len_ = 0;

  // Tuple-keyed open-addressing table (linear probe, backward-shift erase).
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;

  // StreamId-keyed open-addressing side index. Records are keyed by their
  // own `id` field; empty = nullptr.
  std::vector<StreamRecord*> id_slots_;
  std::size_t id_mask_ = 0;
  std::size_t id_size_ = 0;

  std::unique_ptr<RecordPool> pool_;
  StreamRecord* lru_head_ = nullptr;
  StreamRecord* lru_tail_ = nullptr;
};

}  // namespace scap::kernel
