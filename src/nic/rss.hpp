// Receive-Side Scaling: maps a packet's 4-tuple to an RX queue with the
// Toeplitz hash, exactly as commodity NICs do. Scap programs a symmetric key
// (Woo & Park) so both directions of a TCP connection hash to the same queue
// and therefore to the same core (paper §4.2).
//
// The hash is table-driven. Toeplitz is linear over XOR: the hash of an
// input is the XOR of the 32-bit key windows at its set bits. The
// constructor folds those windows into one 256-entry row per input byte
// (about 3k XORs per key), so hashing the 12-byte canonical input is 12
// loads XORed together instead of a 96-step bit walk. toeplitz_hash() in
// base/hash.hpp stays the reference definition the rows are tested against.
#pragma once

#include <array>
#include <cstdint>

#include "base/hash.hpp"
#include "base/hotpath.hpp"
#include "packet/packet.hpp"

namespace scap::nic {

class RssEngine {
 public:
  RssEngine(const RssKey& key, int num_queues);

  /// Queue index for this packet. Non-IP / port-less packets hash on the
  /// address pair only (ports zero), as real hardware does for non-TCP/UDP.
  SCAP_HOT int queue_for(const Packet& pkt) const;

  /// Queue index for an explicit tuple (used when installing filters).
  SCAP_HOT int queue_for(const FiveTuple& tuple) const;

  int num_queues() const { return num_queues_; }

 private:
  static constexpr std::size_t kInputBytes = 12;  // ip, ip, port, port

  // rows_[i][b]: Toeplitz hash of an input whose only nonzero byte is
  // byte i, with value b.
  std::array<std::array<std::uint32_t, 256>, kInputBytes> rows_;
  int num_queues_;
};

}  // namespace scap::nic
