#include "base/hash.hpp"

namespace scap {

RssKey default_rss_key() {
  return RssKey{0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
                0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
                0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
                0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa};
}

RssKey symmetric_rss_key(std::uint16_t lane) {
  RssKey key{};
  for (std::size_t i = 0; i < key.size(); i += 2) {
    key[i] = static_cast<std::uint8_t>(lane >> 8);
    key[i + 1] = static_cast<std::uint8_t>(lane & 0xff);
  }
  return key;
}

std::uint32_t toeplitz_hash(const RssKey& key, std::span<const std::uint8_t> input) {
  // The Toeplitz hash XORs, for every set bit of the input, a 32-bit window
  // of the key starting at that bit position.
  std::uint32_t result = 0;
  // Current 32-bit window of the key; starts at key bits [0, 32) and slides
  // left one bit per consumed input bit.
  std::uint32_t window = (static_cast<std::uint32_t>(key[0]) << 24) |
                         (static_cast<std::uint32_t>(key[1]) << 16) |
                         (static_cast<std::uint32_t>(key[2]) << 8) |
                         static_cast<std::uint32_t>(key[3]);
  std::size_t next_key_bit = 32;  // absolute bit index into the key
  for (std::uint8_t byte : input) {
    for (int bit = 7; bit >= 0; --bit) {
      if ((byte >> bit) & 1) result ^= window;
      std::uint32_t incoming = 0;
      if (next_key_bit < key.size() * 8) {
        incoming = (key[next_key_bit / 8] >> (7 - next_key_bit % 8)) & 1u;
      }
      window = (window << 1) | incoming;
      ++next_key_bit;
    }
  }
  return result;
}

}  // namespace scap
