#include "nic/rss.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "packet/craft.hpp"

namespace scap::nic {
namespace {

// The bit-serial reference: canonical endpoint order, then toeplitz_hash()
// over lo_ip | hi_ip | lo_port | hi_port, reduced modulo the queue count.
int reference_queue(const RssKey& key, const FiveTuple& t, int queues) {
  const FiveTuple c = t.canonical();
  const std::uint8_t input[12] = {
      static_cast<std::uint8_t>(c.src_ip >> 24),
      static_cast<std::uint8_t>(c.src_ip >> 16),
      static_cast<std::uint8_t>(c.src_ip >> 8),
      static_cast<std::uint8_t>(c.src_ip),
      static_cast<std::uint8_t>(c.dst_ip >> 24),
      static_cast<std::uint8_t>(c.dst_ip >> 16),
      static_cast<std::uint8_t>(c.dst_ip >> 8),
      static_cast<std::uint8_t>(c.dst_ip),
      static_cast<std::uint8_t>(c.src_port >> 8),
      static_cast<std::uint8_t>(c.src_port),
      static_cast<std::uint8_t>(c.dst_port >> 8),
      static_cast<std::uint8_t>(c.dst_port)};
  return static_cast<int>(toeplitz_hash(key, input) %
                          static_cast<std::uint32_t>(queues));
}

// Differential test of the table-driven engine against the bit-serial
// reference: 10k seeded random tuples, under the default, symmetric and
// random keys, at every queue count 1-8.
TEST(RssEngine, MatchesBitSerialReference) {
  std::mt19937 rng(0x7e9u);
  std::vector<RssKey> keys = {default_rss_key(), symmetric_rss_key()};
  for (int k = 0; k < 3; ++k) {
    RssKey key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng());
    keys.push_back(key);
  }
  std::uniform_int_distribution<std::uint32_t> ip;
  std::uniform_int_distribution<std::uint16_t> port;
  std::vector<FiveTuple> tuples;
  for (int i = 0; i < 10000; ++i) {
    tuples.push_back({ip(rng), ip(rng), port(rng), port(rng), kProtoTcp});
  }
  // Equal addresses exercise the port tie-break of the canonical order.
  tuples.push_back({7, 7, 9, 8, kProtoTcp});
  tuples.push_back({0, 0, 0, 0, kProtoUdp});
  tuples.push_back({0xffffffff, 0xffffffff, 0xffff, 0xffff, kProtoTcp});
  for (const RssKey& key : keys) {
    for (int queues = 1; queues <= 8; ++queues) {
      const RssEngine rss(key, queues);
      for (const FiveTuple& t : tuples) {
        ASSERT_EQ(rss.queue_for(t), reference_queue(key, t, queues))
            << to_string(t) << " queues=" << queues;
      }
    }
  }
}

// The Microsoft RSS verification vectors, through the engine: with a
// queue count above 2^31 - 2 nearly the whole 32-bit hash shows through
// the modulo, so this pins the table rows bit for bit.
TEST(RssEngine, MicrosoftVectorsThroughTables) {
  constexpr int kWide = std::numeric_limits<int>::max();
  const RssEngine wide(default_rss_key(), kWide);
  // The vectors whose source endpoint is already the lower one, so the
  // engine's canonical input is the published input.
  struct Vector {
    FiveTuple tuple;
    std::uint32_t expected;
  };
  const Vector vectors[] = {
      {{0x420995bb, 0xa18e6450, 2794, 1766, kProtoTcp}, 0x51ccc178},
      {{0x261bcd1e, 0xd18ea306, 48228, 2217, kProtoTcp}, 0xafc7327f},
      {{0x9927a3bf, 0xcabc7f02, 44251, 1303, kProtoTcp}, 0x10e828a2},
  };
  for (const auto& v : vectors) {
    // The engine orders endpoints itself, so either direction works.
    EXPECT_EQ(wide.queue_for(v.tuple),
              static_cast<int>(v.expected % static_cast<std::uint32_t>(kWide)));
    EXPECT_EQ(wide.queue_for(v.tuple.reversed()), wide.queue_for(v.tuple));
    for (int queues = 1; queues <= 8; ++queues) {
      const RssEngine rss(default_rss_key(), queues);
      const auto want = v.expected % static_cast<std::uint32_t>(queues);
      EXPECT_EQ(rss.queue_for(v.tuple), static_cast<int>(want));
    }
  }
}

TEST(RssEngine, SymmetricKeyMapsBothDirectionsToSameQueue) {
  RssEngine rss(symmetric_rss_key(), 8);
  for (std::uint32_t i = 0; i < 200; ++i) {
    FiveTuple fwd{0x0a000001 + i * 3, 0xc0a80001 + i * 11,
                  static_cast<std::uint16_t>(1024 + i),
                  static_cast<std::uint16_t>(80 + (i % 3)), kProtoTcp};
    EXPECT_EQ(rss.queue_for(fwd), rss.queue_for(fwd.reversed()))
        << "asymmetric mapping at i=" << i;
  }
}

// Property test for the canonicalized 4-tuple: both directions of 10k
// random flows map to the same queue for every queue count 1-8, and with
// an arbitrary (non-symmetric) key — the symmetry must come from the
// canonicalization, not from a specially crafted key. This is the flow
// affinity the sharded kernel relies on: a flow's two directions must
// never land on different shards.
TEST(RssEngine, BothDirectionsSameQueueForEveryQueueCount) {
  std::mt19937 rng(0x5ca9u);
  std::uniform_int_distribution<std::uint32_t> ip;
  std::uniform_int_distribution<std::uint16_t> port;
  std::vector<FiveTuple> flows;
  flows.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    flows.push_back({ip(rng), ip(rng), port(rng), port(rng),
                     (i % 2) ? kProtoTcp : kProtoUdp});
  }
  for (int queues = 1; queues <= 8; ++queues) {
    RssEngine symmetric(symmetric_rss_key(), queues);
    RssEngine arbitrary(default_rss_key(), queues);
    for (const FiveTuple& fwd : flows) {
      const FiveTuple rev = fwd.reversed();
      ASSERT_EQ(symmetric.queue_for(fwd), symmetric.queue_for(rev))
          << "symmetric key, queues=" << queues;
      ASSERT_EQ(arbitrary.queue_for(fwd), arbitrary.queue_for(rev))
          << "arbitrary key, queues=" << queues;
    }
  }
}

TEST(RssEngine, SpreadsFlowsReasonablyEvenly) {
  RssEngine rss(symmetric_rss_key(), 8);
  std::vector<int> counts(8, 0);
  const int flows = 8000;
  for (int i = 0; i < flows; ++i) {
    FiveTuple t{0x0a000000 + static_cast<std::uint32_t>(i * 7919),
                0xc0a80000 + static_cast<std::uint32_t>(i * 104729),
                static_cast<std::uint16_t>(1024 + i * 13),
                static_cast<std::uint16_t>(80), kProtoTcp};
    counts[static_cast<std::size_t>(rss.queue_for(t))]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, flows / 8 / 2);
    EXPECT_LT(c, flows / 8 * 2);
  }
}

TEST(RssEngine, PacketAndTupleAgree) {
  RssEngine rss(symmetric_rss_key(), 4);
  TcpSegmentSpec spec;
  spec.tuple = {0x01020304, 0x05060708, 1111, 80, kProtoTcp};
  Packet p = make_tcp_packet(spec, Timestamp(0));
  EXPECT_EQ(rss.queue_for(p), rss.queue_for(spec.tuple));
}

TEST(RssEngine, SingleQueueAlwaysZero) {
  RssEngine rss(default_rss_key(), 1);
  FiveTuple t{1, 2, 3, 4, kProtoTcp};
  EXPECT_EQ(rss.queue_for(t), 0);
}

}  // namespace
}  // namespace scap::nic
