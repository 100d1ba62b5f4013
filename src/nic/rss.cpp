#include "nic/rss.hpp"

namespace scap::nic {

RssEngine::RssEngine(const RssKey& key, int num_queues)
    : num_queues_(num_queues > 0 ? num_queues : 1) {
  for (std::size_t i = 0; i < kInputBytes; ++i) {
    // Key bits [8i, 8i + 40): the windows of input byte i's eight bits.
    // Bit 7 (the MSB) is input bit 8i, whose window starts at key bit 8i;
    // each lower bit's window starts one key bit later.
    std::uint64_t span = 0;
    for (std::size_t k = 0; k < 5; ++k) span = (span << 8) | key[i + k];
    // By XOR linearity, entry b is the XOR of the windows of b's set bits:
    // entries with top bit `bit` are that bit's window XOR an entry below.
    auto& row = rows_[i];
    row[0] = 0;
    for (unsigned bit = 0; bit < 8; ++bit) {
      const auto window = static_cast<std::uint32_t>(span >> (bit + 1));
      const unsigned top = 1u << bit;
      for (unsigned b = 0; b < top; ++b) row[top + b] = window ^ row[b];
    }
  }
}

int RssEngine::queue_for(const FiveTuple& tuple) const {
  // Hash the canonical tuple (lower endpoint first) so both directions of
  // a flow produce the same Toeplitz input. With the symmetric key this
  // was already direction-independent; canonicalizing makes it so for
  // *any* key, which is what the sharded kernel's flow affinity rests on —
  // a flow's packets must never cross shards (DESIGN.md §12).
  const FiveTuple c = tuple.canonical();
  // Input bytes, big-endian: lo_ip | hi_ip | lo_port | hi_port.
  const std::uint32_t hash =
      rows_[0][c.src_ip >> 24] ^ rows_[1][(c.src_ip >> 16) & 0xff] ^
      rows_[2][(c.src_ip >> 8) & 0xff] ^ rows_[3][c.src_ip & 0xff] ^
      rows_[4][c.dst_ip >> 24] ^ rows_[5][(c.dst_ip >> 16) & 0xff] ^
      rows_[6][(c.dst_ip >> 8) & 0xff] ^ rows_[7][c.dst_ip & 0xff] ^
      rows_[8][c.src_port >> 8] ^ rows_[9][c.src_port & 0xff] ^
      rows_[10][c.dst_port >> 8] ^ rows_[11][c.dst_port & 0xff];
  return static_cast<int>(hash % static_cast<std::uint32_t>(num_queues_));
}

int RssEngine::queue_for(const Packet& pkt) const {
  // scap-lint: allow(hot-recursion) overload delegation (callgraph merges overloads by name)
  return queue_for(pkt.tuple());
}

}  // namespace scap::nic
