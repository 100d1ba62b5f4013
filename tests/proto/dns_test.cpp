#include "proto/dns.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace scap::proto {
namespace {

/// Hand-assembled DNS query for "www.example.com" (A, IN).
std::vector<std::uint8_t> query_bytes() {
  return {
      0x12, 0x34,              // id
      0x01, 0x00,              // flags: RD
      0x00, 0x01,              // qdcount
      0x00, 0x00,              // ancount
      0x00, 0x00, 0x00, 0x00,  // ns/ar
      3,    'w',  'w',  'w',  7, 'e', 'x', 'a', 'm', 'p', 'l', 'e',
      3,    'c',  'o',  'm',  0,
      0x00, 0x01,              // qtype A
      0x00, 0x01,              // qclass IN
  };
}

/// Response with a compression pointer back to the question name.
std::vector<std::uint8_t> response_bytes() {
  return {
      0x12, 0x34,
      0x81, 0x80,              // QR, RD, RA, rcode 0
      0x00, 0x01,              // qdcount
      0x00, 0x01,              // ancount
      0x00, 0x00, 0x00, 0x00,
      3,    'w',  'w',  'w',  7, 'e', 'x', 'a', 'm', 'p', 'l', 'e',
      3,    'c',  'o',  'm',  0,
      0x00, 0x01, 0x00, 0x01,
      // Answer: pointer to offset 12, type A, class IN, TTL 300, rdlen 4.
      0xc0, 12,   0x00, 0x01, 0x00, 0x01,
      0x00, 0x00, 0x01, 0x2c, 0x00, 0x04,
      93,   184,  216,  34,
  };
}

TEST(Dns, ParsesQuery) {
  auto msg = parse_dns(query_bytes());
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->id, 0x1234);
  EXPECT_FALSE(msg->is_response);
  EXPECT_TRUE(msg->recursion_desired);
  ASSERT_EQ(msg->questions.size(), 1u);
  EXPECT_EQ(msg->questions[0].name, "www.example.com");
  EXPECT_EQ(msg->questions[0].qtype,
            static_cast<std::uint16_t>(DnsType::kA));
}

TEST(Dns, ParsesResponseWithCompression) {
  auto msg = parse_dns(response_bytes());
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->is_response);
  EXPECT_EQ(msg->rcode, 0);
  ASSERT_EQ(msg->answers.size(), 1u);
  EXPECT_EQ(msg->answers[0].name, "www.example.com");  // via pointer
  EXPECT_EQ(msg->answers[0].ttl, 300u);
  EXPECT_EQ(msg->answers[0].a_address(), "93.184.216.34");
}

TEST(Dns, RejectsTruncatedInputs) {
  auto full = response_bytes();
  for (std::size_t len = 0; len < full.size(); ++len) {
    auto msg = parse_dns(std::span<const std::uint8_t>(full.data(), len));
    // Prefixes that cut inside the header or records must fail; prefixes
    // that happen to end exactly after the question also fail because
    // ancount promises an answer.
    EXPECT_FALSE(msg.has_value()) << "prefix " << len;
  }
}

TEST(Dns, RejectsPointerLoop) {
  std::vector<std::uint8_t> evil = {
      0x00, 0x01, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // Name at offset 12 pointing at itself is a forward/self pointer.
      0xc0, 12, 0x00, 0x01, 0x00, 0x01,
  };
  EXPECT_FALSE(parse_dns(evil).has_value());
}

TEST(Dns, RejectsAbsurdCounts) {
  auto b = query_bytes();
  b[4] = 0xff;  // qdcount = 65281
  b[5] = 0x01;
  EXPECT_FALSE(parse_dns(b).has_value());
}

TEST(Dns, FuzzNeverCrashes) {

  std::uint64_t state = 0x5eed;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint8_t>(state >> 33);
  };
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::uint8_t> junk(12 + (next() % 64));
    for (auto& byte : junk) byte = next();
    (void)parse_dns(junk);  // must not crash or hang
  }
  SUCCEED();
}

}  // namespace
}  // namespace scap::proto
