#include "nic/fdir.hpp"

#include "base/bytes.hpp"
#include "faultinject/faultinject.hpp"

namespace scap::nic {

namespace {

// Ids pack the slot in the low half and its generation in the high half;
// generations start at 1, so a live id is never 0.
std::uint64_t make_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) | slot;
}

}  // namespace

std::uint64_t FdirTable::add(const FdirFilter& filter,
                             std::optional<FdirFilter>* evicted) {
  if (evicted) evicted->reset();
  // Injected hardware programming failure (a real ixgbe fdir_write can
  // fail): id 0 tells the caller the filter was NOT installed.
  if (faultinject::should_fail(faultinject::FaultPoint::kFdirAdd)) {
    ++add_failures_;
    return 0;
  }
  // A steering target the NIC does not have: the hardware would reject
  // the programming, so the filter is not installed.
  if (filter.action == FdirAction::kToQueue &&
      (filter.queue < 0 || filter.queue >= num_queues_)) {
    ++add_failures_;
    return 0;
  }
  if (size_ >= capacity_) {
    // Evict the filter closest to expiry.
    if (by_timeout_.empty()) {
      ++add_failures_;  // capacity 0: nothing to evict, nothing to install
      return 0;
    }
    const std::uint32_t victim = by_timeout_.begin()->second;
    if (evicted) *evicted = slab_[victim].filter;
    release(victim);
    ++evictions_;
  }
  std::uint32_t slot = free_head_;
  if (slot != kNil) {
    free_head_ = slab_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Entry& e = slab_[slot];
  e.filter = filter;
  e.timeout_it = by_timeout_.emplace(filter.expires.ns(), slot);
  e.live = true;
  ++size_;
  if (size_ > buckets_.size()) grow_buckets();
  append_to_chain(slot);
  return make_id(slot, e.gen);
}

void FdirTable::append_to_chain(std::uint32_t slot) {
  slab_[slot].next = kNil;
  std::uint32_t* link = &buckets_[bucket_of(slab_[slot].filter.tuple)];
  while (*link != kNil) link = &slab_[*link].next;
  *link = slot;
}

void FdirTable::grow_buckets() {
  // Called as size_ first exceeds the bucket count: doubling restores
  // load <= 1.
  const std::vector<std::uint32_t> old = std::move(buckets_);
  buckets_.assign(old.empty() ? kMinBuckets : old.size() * 2, kNil);
  // Re-link chain by chain, in chain order: filters of one tuple share an
  // old chain, so their install order carries over to the new one.
  for (std::uint32_t head : old) {
    for (std::uint32_t i = head; i != kNil;) {
      const std::uint32_t next = slab_[i].next;
      append_to_chain(i);
      i = next;
    }
  }
}

void FdirTable::release(std::uint32_t slot) {
  Entry& e = slab_[slot];
  std::uint32_t* link = &buckets_[bucket_of(e.filter.tuple)];
  while (*link != slot) link = &slab_[*link].next;
  *link = e.next;
  by_timeout_.erase(e.timeout_it);
  e.live = false;
  if (++e.gen == 0) e.gen = 1;
  e.next = free_head_;
  free_head_ = slot;
  --size_;
}

bool FdirTable::remove(std::uint64_t id) {
  const std::uint64_t slot = id & 0xffffffffu;
  if (slot >= slab_.size()) return false;
  const Entry& e = slab_[slot];
  if (!e.live || e.gen != (id >> 32)) return false;
  release(static_cast<std::uint32_t>(slot));
  return true;
}

std::size_t FdirTable::remove_tuple(const FiveTuple& tuple,
                                   std::optional<FdirAction> action) {
  if (size_ == 0) return 0;
  std::size_t removed = 0;
  for (std::uint32_t i = buckets_[bucket_of(tuple)]; i != kNil;) {
    const std::uint32_t next = slab_[i].next;
    const FdirFilter& f = slab_[i].filter;
    if (f.tuple == tuple && (!action || f.action == *action)) {
      release(i);
      ++removed;
    }
    i = next;
  }
  return removed;
}

const FdirFilter* FdirTable::match(const Packet& pkt) const {
  if (size_ == 0) return nullptr;
  const FiveTuple& tuple = pkt.tuple();
  for (std::uint32_t i = buckets_[bucket_of(tuple)]; i != kNil;
       i = slab_[i].next) {
    const FdirFilter& f = slab_[i].filter;
    if (!(f.tuple == tuple)) continue;
    if (f.has_flex) {
      const auto frame = pkt.frame();
      if (frame.size() < static_cast<std::size_t>(f.flex_offset) + 2) continue;
      const std::uint16_t halfword = load_be16(frame.data() + f.flex_offset);
      if ((halfword & f.flex_mask) != (f.flex_value & f.flex_mask)) continue;
    }
    return &f;
  }
  return nullptr;
}

std::vector<FdirFilter> FdirTable::expire(Timestamp now) {
  std::vector<FdirFilter> expired;
  while (!by_timeout_.empty() && by_timeout_.begin()->first <= now.ns()) {
    const std::uint32_t slot = by_timeout_.begin()->second;
    expired.push_back(slab_[slot].filter);
    release(slot);
  }
  return expired;
}

std::array<FdirFilter, kCutoffFilters> make_cutoff_filters(
    const FiveTuple& tuple, Timestamp expires) {
  // Match the TCP flags byte (low 6 bits of the flags halfword: URG ACK PSH
  // RST SYN FIN). Two filters: flags == ACK, and flags == ACK|PSH. Anything
  // carrying SYN, FIN, or RST fails both matches and reaches the host.
  std::array<FdirFilter, kCutoffFilters> filters;
  const std::uint16_t flags[] = {kTcpAck, kTcpAck | kTcpPsh};
  for (std::size_t i = 0; i < filters.size(); ++i) {
    FdirFilter& f = filters[i];
    f.tuple = tuple;
    f.action = FdirAction::kDrop;
    f.has_flex = true;
    f.flex_offset = kTcpFlagsFlexOffset;
    f.flex_value = flags[i];
    f.flex_mask = 0x003f;  // the six flag bits
    f.expires = expires;
  }
  return filters;
}

}  // namespace scap::nic
