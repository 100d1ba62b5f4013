#include "kernel/segment_store.hpp"

#include <algorithm>
#include <cstring>

#include "faultinject/faultinject.hpp"

namespace scap::kernel {
namespace {

/// Does the new segment [noff, nend) win over an existing one starting at
/// eoff under this policy?
bool new_wins(OverlapPolicy policy, std::uint64_t noff, std::uint64_t nend,
              std::uint64_t eoff, std::uint64_t eend) {
  switch (policy) {
    case OverlapPolicy::kFirst:
      return false;
    case OverlapPolicy::kLast:
      return true;
    case OverlapPolicy::kBsd:
      // Classic BSD: data arriving with an earlier starting sequence than
      // the buffered segment replaces the overlap; otherwise the buffered
      // (first) copy is kept.
      return noff < eoff;
    case OverlapPolicy::kLinux:
      // Linux keeps the buffered copy unless the new segment both starts
      // before and fully engulfs it.
      return noff < eoff && nend >= eend;
  }
  return false;
}

}  // namespace

SegmentStore::InsertResult SegmentStore::insert(
    std::uint64_t off, std::span<const std::uint8_t> data,
    OverlapPolicy policy) {
  InsertResult result;
  if (data.empty()) return result;
  // Injected buffer-allocation failure: report it before touching the store
  // so a failed insert never leaves partial state behind.
  if (faultinject::should_fail(faultinject::FaultPoint::kSegmentStoreInsert)) {
    result.failed = true;
    return result;
  }
  const std::uint64_t end = off + data.size();

  // Collect every existing segment overlapping [off, end).
  struct Old {
    std::uint64_t off;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Old> overlapping;
  auto it = segments_.lower_bound(off);
  if (it != segments_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size() > off) it = prev;
  }
  while (it != segments_.end() && it->first < end) {
    // scap-lint: allow(hot-alloc) OOO overlap resolution buffers segments, bounded by max_ooo_bytes / max_buffered_bytes (DESIGN.md §14 inventory)
    overlapping.push_back({it->first, std::move(it->second)});
    bytes_ -= overlapping.back().bytes.size();
    it = segments_.erase(it);
  }

  if (overlapping.empty()) {
    bytes_ += data.size();
    result.new_bytes = data.size();
    // scap-lint: allow(hot-alloc) OOO segment buffering is the strict-mode trade-off, bounded by max_ooo_bytes (DESIGN.md §14 inventory)
    segments_.emplace(off, std::vector<std::uint8_t>(data.begin(), data.end()));
    return result;
  }

  // Merged region is contiguous: every old segment intersects [off, end).
  const std::uint64_t lo = std::min(off, overlapping.front().off);
  std::uint64_t hi = end;
  for (const auto& o : overlapping) {
    hi = std::max(hi, o.off + o.bytes.size());
  }
  std::vector<std::uint8_t> merged(hi - lo, 0);
  std::vector<std::uint8_t> occupied(hi - lo, 0);

  // Lay down the old segments first.
  for (const auto& o : overlapping) {
    std::memcpy(merged.data() + (o.off - lo), o.bytes.data(), o.bytes.size());
    std::fill(occupied.begin() + static_cast<std::ptrdiff_t>(o.off - lo),
              occupied.begin() +
                  static_cast<std::ptrdiff_t>(o.off - lo + o.bytes.size()),
              1);
  }

  // New data fills gaps unconditionally.
  for (std::uint64_t pos = off; pos < end; ++pos) {
    if (!occupied[pos - lo]) {
      merged[pos - lo] = data[pos - off];
      occupied[pos - lo] = 1;
      ++result.new_bytes;
    }
  }

  // Resolve each overlap region per policy; detect disagreement.
  for (const auto& o : overlapping) {
    const std::uint64_t ov_lo = std::max(off, o.off);
    const std::uint64_t ov_hi = std::min(end, o.off + o.bytes.size());
    if (ov_lo >= ov_hi) continue;
    const std::size_t len = ov_hi - ov_lo;
    result.dup_bytes += len;
    if (std::memcmp(o.bytes.data() + (ov_lo - o.off), data.data() + (ov_lo - off),
                    len) != 0) {
      result.conflict = true;
    }
    if (new_wins(policy, off, end, o.off, o.off + o.bytes.size())) {
      std::memcpy(merged.data() + (ov_lo - lo), data.data() + (ov_lo - off), len);
    }
  }

  bytes_ += merged.size();
  // scap-lint: allow(hot-alloc) re-inserting the merged overlap run, bounded by max_ooo_bytes (DESIGN.md §14 inventory)
  segments_.emplace(lo, std::move(merged));
  return result;
}

std::optional<std::vector<std::uint8_t>> SegmentStore::pop_contiguous(
    std::uint64_t off) {
  auto it = segments_.find(off);
  if (it == segments_.end()) return std::nullopt;
  std::vector<std::uint8_t> run = std::move(it->second);
  bytes_ -= run.size();
  it = segments_.erase(it);
  // Absorb directly adjacent successors.
  while (it != segments_.end() && it->first == off + run.size()) {
    bytes_ -= it->second.size();
    // scap-lint: allow(hot-alloc) coalescing adjacent OOO runs on hole fill, bounded by max_ooo_bytes (DESIGN.md §14 inventory)
    run.insert(run.end(), it->second.begin(), it->second.end());
    it = segments_.erase(it);
  }
  return run;
}

std::optional<std::uint64_t> SegmentStore::min_offset() const {
  if (segments_.empty()) return std::nullopt;
  return segments_.begin()->first;
}

std::optional<std::pair<std::uint64_t, std::vector<std::uint8_t>>>
SegmentStore::pop_front() {
  if (segments_.empty()) return std::nullopt;
  auto it = segments_.begin();
  std::pair<std::uint64_t, std::vector<std::uint8_t>> out{
      it->first, std::move(it->second)};
  bytes_ -= out.second.size();
  segments_.erase(it);
  return out;
}

}  // namespace scap::kernel
