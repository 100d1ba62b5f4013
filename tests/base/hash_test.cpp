#include "base/hash.hpp"

#include <gtest/gtest.h>

namespace scap {
namespace {

// Verified against the Microsoft RSS verification suite vectors
// (IPv4, TCP, default key).
TEST(Toeplitz, MicrosoftTestVectors) {
  const RssKey key = default_rss_key();
  struct Vector {
    std::uint32_t src_ip, dst_ip;
    std::uint16_t src_port, dst_port;
    std::uint32_t expected;
  };
  // Input order for the hash: dst_ip, src_ip, dst_port, src_port — as in the
  // Microsoft spec ("source address" first means the remote peer's address;
  // we follow the canonical published vectors).
  const Vector vectors[] = {
      // 66.9.149.187:2794 -> 161.142.100.80:1766 => 0x51ccc178
      {0x420995bb, 0xa18e6450, 2794, 1766, 0x51ccc178},
      // 199.92.111.2:14230 -> 65.69.140.83:4739 => 0xc626b0ea
      {0xc75c6f02, 0x41458c53, 14230, 4739, 0xc626b0ea},
      // 24.19.198.95:12898 -> 12.22.207.184:38024 => 0x5c2b394a
      {0x1813c65f, 0x0c16cfb8, 12898, 38024, 0x5c2b394a},
      // 38.27.205.30:48228 -> 209.142.163.6:2217 => 0xafc7327f
      {0x261bcd1e, 0xd18ea306, 48228, 2217, 0xafc7327f},
      // 153.39.163.191:44251 -> 202.188.127.2:1303 => 0x10e828a2
      {0x9927a3bf, 0xcabc7f02, 44251, 1303, 0x10e828a2},
  };
  for (const auto& v : vectors) {
    std::uint8_t input[12];
    // Microsoft spec: input = src_addr | dst_addr | src_port | dst_port,
    // where "src" is the packet's source. In the published vectors the
    // first address listed is the destination of the packet.
    input[0] = static_cast<std::uint8_t>(v.src_ip >> 24);
    input[1] = static_cast<std::uint8_t>(v.src_ip >> 16);
    input[2] = static_cast<std::uint8_t>(v.src_ip >> 8);
    input[3] = static_cast<std::uint8_t>(v.src_ip);
    input[4] = static_cast<std::uint8_t>(v.dst_ip >> 24);
    input[5] = static_cast<std::uint8_t>(v.dst_ip >> 16);
    input[6] = static_cast<std::uint8_t>(v.dst_ip >> 8);
    input[7] = static_cast<std::uint8_t>(v.dst_ip);
    input[8] = static_cast<std::uint8_t>(v.src_port >> 8);
    input[9] = static_cast<std::uint8_t>(v.src_port);
    input[10] = static_cast<std::uint8_t>(v.dst_port >> 8);
    input[11] = static_cast<std::uint8_t>(v.dst_port);
    EXPECT_EQ(toeplitz_hash(key, input), v.expected);
  }
}

TEST(Toeplitz, SymmetricKeyIsDirectionInvariant) {
  const RssKey key = symmetric_rss_key();
  auto hash_of = [&](std::uint32_t sip, std::uint32_t dip, std::uint16_t sp,
                     std::uint16_t dp) {
    std::uint8_t input[12] = {
        static_cast<std::uint8_t>(sip >> 24), static_cast<std::uint8_t>(sip >> 16),
        static_cast<std::uint8_t>(sip >> 8),  static_cast<std::uint8_t>(sip),
        static_cast<std::uint8_t>(dip >> 24), static_cast<std::uint8_t>(dip >> 16),
        static_cast<std::uint8_t>(dip >> 8),  static_cast<std::uint8_t>(dip),
        static_cast<std::uint8_t>(sp >> 8),   static_cast<std::uint8_t>(sp),
        static_cast<std::uint8_t>(dp >> 8),   static_cast<std::uint8_t>(dp)};
    return toeplitz_hash(key, input);
  };
  for (std::uint32_t i = 1; i < 50; ++i) {
    std::uint32_t sip = 0x0a000001 + i * 7;
    std::uint32_t dip = 0xc0a80001 + i * 13;
    std::uint16_t sp = static_cast<std::uint16_t>(1024 + i * 3);
    std::uint16_t dp = static_cast<std::uint16_t>(80 + (i % 5));
    EXPECT_EQ(hash_of(sip, dip, sp, dp), hash_of(dip, sip, dp, sp))
        << "direction asymmetry at i=" << i;
  }
}

TEST(Toeplitz, SpreadsFlowsAcrossQueues) {
  const RssKey key = default_rss_key();
  int counts[8] = {};
  for (std::uint32_t i = 0; i < 4000; ++i) {
    std::uint8_t input[12] = {};
    input[3] = static_cast<std::uint8_t>(i & 0xff);
    input[2] = static_cast<std::uint8_t>((i >> 8) & 0xff);
    input[7] = static_cast<std::uint8_t>(i * 7 & 0xff);
    input[9] = static_cast<std::uint8_t>(i * 13 & 0xff);
    counts[toeplitz_hash(key, input) % 8]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 4000 / 8 / 2) << "queue badly underloaded";
    EXPECT_LT(c, 4000 / 8 * 2) << "queue badly overloaded";
  }
}

TEST(Mix64, Bijective) {
  EXPECT_NE(mix64(0), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_EQ(mix64(12345), mix64(12345));
}

}  // namespace
}  // namespace scap
