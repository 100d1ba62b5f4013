#include "kernel/flow_table.hpp"

#include "kernel/record_pool.hpp"

namespace scap::kernel {

namespace {
constexpr std::size_t kMinCapacity = 64;
// Grow when size exceeds 7/8 of capacity... kept stricter at 0.7 so the
// expected probe length stays short even right before a resize.
constexpr double kMaxLoad = 0.7;

std::size_t next_pow2(std::size_t n) {
  std::size_t c = kMinCapacity;
  while (c < n) c <<= 1;
  return c;
}
}  // namespace

FlowTable::FlowTable(std::size_t max_records, std::uint64_t seed)
    : max_records_(max_records),
      seed_(seed),
      pool_(std::make_unique<RecordPool>()) {
  // Pre-size for the record budget when one is configured, so a budgeted
  // table never rehashes on the hot path.
  const std::size_t want =
      max_records ? next_pow2(max_records * 2) : kMinCapacity;
  slots_.assign(want, Slot{});
  mask_ = want - 1;
  id_slots_.assign(want, nullptr);
  id_mask_ = want - 1;
}

FlowTable::~FlowTable() = default;

RecordPoolStats FlowTable::pool_stats() const { return pool_->stats(); }

StreamRecord* FlowTable::find(const FiveTuple& tuple, std::uint64_t h) {
  std::size_t i = h & mask_;
  std::size_t probes = 1;
  while (slots_[i].rec != nullptr) {
    if (slots_[i].hash == h && slots_[i].rec->tuple == tuple) {
      last_probe_len_ = probes;
      return slots_[i].rec;
    }
    i = (i + 1) & mask_;
    ++probes;
  }
  last_probe_len_ = probes;
  return nullptr;
}

void FlowTable::insert_slot(StreamRecord* rec, std::uint64_t hash) {
  std::size_t i = hash & mask_;
  while (slots_[i].rec != nullptr) i = (i + 1) & mask_;
  slots_[i].rec = rec;
  slots_[i].hash = hash;
}

void FlowTable::grow_tuple_table() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t cap = (mask_ + 1) * 2;
  // scap-lint: allow(hot-alloc) doubling table growth, amortized O(1) per create and absent at steady-state flow counts (DESIGN.md §14 inventory)
  slots_.assign(cap, Slot{});
  mask_ = cap - 1;
  for (const Slot& s : old) {
    if (s.rec != nullptr) insert_slot(s.rec, s.hash);
  }
}

void FlowTable::erase_tuple_slot(std::size_t i) {
  // Tombstone-free deletion: backward-shift every entry in the probe window
  // that can legally occupy the hole (its ideal slot lies at or before it).
  std::size_t hole = i;
  std::size_t k = i;
  while (true) {
    k = (k + 1) & mask_;
    if (slots_[k].rec == nullptr) break;
    const std::size_t ideal = slots_[k].hash & mask_;
    // `hole` is on k's probe path iff the cyclic distance ideal->hole does
    // not exceed the distance ideal->k.
    if (((hole - ideal) & mask_) <= ((k - ideal) & mask_)) {
      slots_[hole] = slots_[k];
      hole = k;
    }
  }
  slots_[hole] = Slot{};
}

void FlowTable::insert_id(StreamRecord* rec) {
  std::size_t i = mix64(rec->id) & id_mask_;
  while (id_slots_[i] != nullptr) i = (i + 1) & id_mask_;
  id_slots_[i] = rec;
}

void FlowTable::grow_id_table() {
  std::vector<StreamRecord*> old = std::move(id_slots_);
  const std::size_t cap = (id_mask_ + 1) * 2;
  // scap-lint: allow(hot-alloc) doubling table growth, amortized O(1) per create and absent at steady-state flow counts (DESIGN.md §14 inventory)
  id_slots_.assign(cap, nullptr);
  id_mask_ = cap - 1;
  for (StreamRecord* rec : old) {
    if (rec != nullptr) insert_id(rec);
  }
}

void FlowTable::erase_id(StreamId id) {
  std::size_t i = mix64(id) & id_mask_;
  while (id_slots_[i] != nullptr) {
    if (id_slots_[i]->id == id) break;
    i = (i + 1) & id_mask_;
  }
  if (id_slots_[i] == nullptr) return;  // not present
  std::size_t hole = i;
  std::size_t k = i;
  while (true) {
    k = (k + 1) & id_mask_;
    if (id_slots_[k] == nullptr) break;
    const std::size_t ideal = mix64(id_slots_[k]->id) & id_mask_;
    if (((hole - ideal) & id_mask_) <= ((k - ideal) & id_mask_)) {
      id_slots_[hole] = id_slots_[k];
      hole = k;
    }
  }
  id_slots_[hole] = nullptr;
  --id_size_;
}

StreamRecord* FlowTable::by_id(StreamId id) {
  if (id == kInvalidStreamId) return nullptr;
  std::size_t i = mix64(id) & id_mask_;
  while (id_slots_[i] != nullptr) {
    if (id_slots_[i]->id == id) return id_slots_[i];
    i = (i + 1) & id_mask_;
  }
  return nullptr;
}

void FlowTable::lru_unlink(StreamRecord& rec) {
  if (rec.lru_prev) {
    rec.lru_prev->lru_next = rec.lru_next;
  } else if (lru_head_ == &rec) {
    lru_head_ = rec.lru_next;
  }
  if (rec.lru_next) {
    rec.lru_next->lru_prev = rec.lru_prev;
  } else if (lru_tail_ == &rec) {
    lru_tail_ = rec.lru_prev;
  }
  rec.lru_prev = rec.lru_next = nullptr;
}

void FlowTable::lru_push_front(StreamRecord& rec) {
  rec.lru_prev = nullptr;
  rec.lru_next = lru_head_;
  if (lru_head_) lru_head_->lru_prev = &rec;
  lru_head_ = &rec;
  if (!lru_tail_) lru_tail_ = &rec;
}

StreamRecord* FlowTable::create(const FiveTuple& tuple, std::uint64_t hash,
                                Timestamp now,
                                FunctionRef<void(StreamRecord&)> on_evict) {
  if (max_records_ > 0 && size_ >= max_records_) {
    // Budget exhausted: evict the oldest stream so the new one can always
    // be tracked (paper §6.4).
    StreamRecord* victim = lru_tail_;
    if (victim == nullptr) return nullptr;  // max_records > 0 && empty: never
    const StreamId victim_id = victim->id;
    if (on_evict) on_evict(*victim);
    // The eviction hook may remove the victim itself (the kernel's hook
    // terminates the stream, which does); only remove it if still tracked.
    if (by_id(victim_id) == victim) remove(*victim);
    ++evicted_total_;
  }
  if (static_cast<double>(size_ + 1) >
      kMaxLoad * static_cast<double>(mask_ + 1)) {
    grow_tuple_table();
  }
  if (static_cast<double>(id_size_ + 1) >
      kMaxLoad * static_cast<double>(id_mask_ + 1)) {
    grow_id_table();
  }

  StreamRecord* rec = pool_->acquire();
  // Record allocation failed (fault injection): the stream cannot be
  // tracked. The table is unchanged — only (possibly) grown above.
  if (rec == nullptr) return nullptr;
  rec->id = next_id_++;
  rec->tuple = tuple;
  rec->tuple_hash = hash;
  rec->created_at = now;
  rec->last_access = now;
  rec->last_flush = now;
  insert_slot(rec, rec->tuple_hash);
  insert_id(rec);
  ++id_size_;
  ++size_;
  lru_push_front(*rec);
  ++created_total_;
  return rec;
}

void FlowTable::touch(StreamRecord& rec, Timestamp now) {
  rec.last_access = now;
  if (lru_head_ == &rec) return;
  lru_unlink(rec);
  lru_push_front(rec);
}

void FlowTable::remove(StreamRecord& rec) {
  lru_unlink(rec);
  erase_id(rec.id);
  // Unlink the opposite direction's back-pointer.
  if (rec.opposite != kInvalidStreamId) {
    if (StreamRecord* opp = by_id(rec.opposite)) {
      opp->opposite = kInvalidStreamId;
    }
  }
  // Locate this record's slot (not merely a record with an equal tuple:
  // duplicates are possible, so compare the pointer).
  std::size_t i = rec.tuple_hash & mask_;
  while (slots_[i].rec != &rec) i = (i + 1) & mask_;
  erase_tuple_slot(i);
  --size_;
  pool_->release(&rec);
}

void FlowTable::expire_idle(Timestamp now,
                            FunctionRef<void(StreamRecord&)> on_expire) {
  while (lru_tail_ != nullptr) {
    StreamRecord* rec = lru_tail_;
    if (now - rec->last_access < rec->params.inactivity_timeout) break;
    if (on_expire) on_expire(*rec);
    remove(*rec);
  }
}

}  // namespace scap::kernel
