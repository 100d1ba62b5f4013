// Flow Director (FDIR) filter table — the model of the Intel 82599's
// perfect-match filters (paper §2.1, §5.5).
//
// A filter matches a packet's 5-tuple plus an optional "flexible 2-byte
// tuple" anywhere in the first 64 bytes of the frame (the paper's modified
// driver points it at the TCP offset/reserved/flags bytes so that ACK and
// ACK|PSH data packets can be dropped while RST/FIN still reach the host).
// Matching packets are either dropped at the NIC — never reaching main
// memory, the "subzero copy" path — or steered to an explicit RX queue
// (dynamic load balancing).
//
// The table enforces the hardware capacity, keeps filters on a timeout list
// ordered by expiry (paper: re-installed filters get doubled timeouts so
// long flows are evicted only a logarithmic number of times), and evicts the
// soonest-to-expire filter when full.
//
// Layout (the FlowTable idiom): filters live in a slab with a free list; a
// power-of-two bucket array, keyed by a seeded field-wise tuple hash,
// holds the head of each bucket's chain. A match reads one bucket and
// walks its chain — with the table at load <= 1 usually one entry —
// before the flex read. Chains are appended at the tail, so the first
// live filter for a tuple is the earliest installed. Filter ids encode
// slot and generation, so removal needs no id index and a stale id is
// recognised as such. The bucket array is allocated on the first add: an
// empty table costs nothing to build or to match against.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "base/clock.hpp"
#include "base/hotpath.hpp"
#include "packet/packet.hpp"

namespace scap::nic {

enum class FdirAction : std::uint8_t { kDrop, kToQueue };

struct FdirFilter {
  FiveTuple tuple;
  FdirAction action = FdirAction::kDrop;
  int queue = 0;  // for kToQueue

  // Flexible 2-byte match window (big-endian halfword at `flex_offset` into
  // the frame, masked). Offset must lie within the first 64 bytes.
  bool has_flex = false;
  std::uint8_t flex_offset = 0;
  std::uint16_t flex_value = 0;
  std::uint16_t flex_mask = 0xffff;

  Timestamp expires;  // absolute virtual time
};

class FdirTable {
 public:
  /// The 82599 supports 8K perfect-match filters (paper §2.1).
  /// Steering filters must name a queue in [0, num_queues).
  explicit FdirTable(std::size_t capacity = 8192,
                     int num_queues = std::numeric_limits<int>::max())
      : capacity_(capacity), num_queues_(num_queues) {}

  /// Install a filter. If the table is full, the filter with the nearest
  /// expiry is evicted first (paper §5.5: "a filter with a small timeout is
  /// evicted, as it does not correspond to a long-lived stream").
  /// Returns the new filter's id, and reports any eviction via `evicted`.
  /// A steering filter whose queue is out of range is rejected (id 0).
  std::uint64_t add(const FdirFilter& filter,
                    std::optional<FdirFilter>* evicted = nullptr);

  /// Remove by id; returns false if unknown or already removed.
  bool remove(std::uint64_t id);

  /// Remove all filters for a tuple (both flex variants), or only those
  /// with `action`; returns count.
  std::size_t remove_tuple(const FiveTuple& tuple,
                           std::optional<FdirAction> action = std::nullopt);

  /// Earliest-installed filter matching this packet, or nullptr.
  SCAP_HOT const FdirFilter* match(const Packet& pkt) const;

  /// Pop every filter whose timeout has passed. The owner decides whether
  /// to re-install (with a doubled timeout) when the stream turns out to be
  /// still alive.
  std::vector<FdirFilter> expire(Timestamp now);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t evictions() const { return evictions_; }
  /// Installs rejected with id 0 (capacity 0, a steering queue out of
  /// range, or an injected hardware error).
  std::uint64_t add_failures() const { return add_failures_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint64_t kHashSeed = 0xfd1e'5eed'0f82'5990ULL;
  static constexpr std::size_t kMinBuckets = 16;

  struct Entry {
    FdirFilter filter;
    std::multimap<std::int64_t, std::uint32_t>::iterator timeout_it;
    std::uint32_t next = kNil;  // bucket chain while live, free list after
    std::uint32_t gen = 1;      // id generation, bumped when the slot frees
    bool live = false;
  };

  std::size_t bucket_of(const FiveTuple& t) const {
    return hash_tuple(t, kHashSeed) & (buckets_.size() - 1);
  }
  void append_to_chain(std::uint32_t slot);
  void release(std::uint32_t slot);
  void grow_buckets();

  std::size_t capacity_;
  int num_queues_;
  std::size_t size_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t add_failures_ = 0;
  std::vector<Entry> slab_;
  std::uint32_t free_head_ = kNil;
  // Chain heads (slab indices), kNil when empty; empty until the first add.
  std::vector<std::uint32_t> buckets_;
  // expiry ns -> slot, ordered so expiry and eviction scan from the front.
  std::multimap<std::int64_t, std::uint32_t> by_timeout_;
};

/// Frame byte offset of the TCP offset/reserved/flags halfword for a frame
/// with no IP options (Ethernet 14 + IPv4 20 + TCP offset 12).
constexpr std::uint8_t kTcpFlagsFlexOffset = 14 + 20 + 12;

/// Filters one cutoff install places (make_cutoff_filters).
inline constexpr std::size_t kCutoffFilters = 2;

/// Build the paper's two data-packet-dropping filters for one stream
/// direction: one matching pure-ACK segments, one matching ACK|PSH
/// (paper §5.5). RST/FIN packets fall through to the host.
std::array<FdirFilter, kCutoffFilters> make_cutoff_filters(
    const FiveTuple& tuple, Timestamp expires);

}  // namespace scap::nic
