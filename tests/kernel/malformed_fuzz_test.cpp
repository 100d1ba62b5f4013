// Seeded fuzz of the decode path and the kernel's hostile-input handling
// (DESIGN.md §8). 50k random buffers plus structured header mutations go
// through Packet::decode and a defragmenting strict-mode kernel. Nothing may
// crash, every rejected packet must land in exactly one taxonomy bucket, and
// the buckets must sum to pkts_invalid.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "base/rng.hpp"
#include "faultinject/adversary.hpp"
#include "kernel/module.hpp"
#include "packet/headers.hpp"
#include "packet/packet.hpp"

namespace scap::kernel {
namespace {

using faultinject::AdversaryConfig;
using faultinject::AdversaryGen;
using faultinject::AdversaryMix;

constexpr std::uint64_t kRandomBuffers = 50000;

KernelConfig hostile_config() {
  KernelConfig cfg;
  cfg.memory_size = 4 << 20;
  cfg.defaults.chunk_size = 4096;
  cfg.defaults.mode = ReassemblyMode::kTcpStrict;
  cfg.defragment_ip = true;
  cfg.max_streams = 128;
  return cfg;
}

void drain(ScapKernel& k) {
  auto& q = k.events();
  while (!q.empty()) k.release_chunk(q.pop());
}

std::uint64_t taxonomy_sum(const KernelStats& s) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kNumDecodeErrors; ++i) sum += s.parse_errors[i];
  return sum;
}

// Pure random bytes: most won't decode; whatever happens, every invalid
// packet carries exactly one taxonomy reason and the kernel absorbs it.
TEST(MalformedFuzz, RandomBuffersNeverCrashAndAlwaysClassify) {
  ScapKernel k(hostile_config());
  Rng rng(0xf0220ull);
  Timestamp t(0);
  std::vector<std::uint8_t> buf;

  for (std::uint64_t i = 0; i < kRandomBuffers; ++i) {
    // Length sweep biased toward header-boundary sizes: 0..63 covers every
    // truncation point of eth+ip+tcp; occasionally much larger.
    std::size_t len = rng.bounded(64);
    if (rng.chance(0.1)) len = 64 + rng.bounded(1536);
    buf.resize(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.bounded(256));

    const Packet pkt = Packet::from_bytes(buf, t);
    if (!pkt.valid()) {
      EXPECT_NE(pkt.decode_error(), DecodeError::kNone)
          << "invalid packet without a taxonomy reason at iteration " << i;
    } else {
      EXPECT_EQ(pkt.decode_error(), DecodeError::kNone);
    }
    k.handle_packet(pkt, t);
    t = t + Duration::from_usec(1);
    if ((i & 0x3ff) == 0) drain(k);
  }
  drain(k);

  const KernelStats& s = k.stats();
  EXPECT_EQ(taxonomy_sum(s), s.pkts_invalid);
  EXPECT_GT(s.pkts_invalid, 0u);
  // Random bytes rarely hit 0x0800: most failures are kNonIpv4 or
  // truncation, but the point of the sweep is that whatever bucket fires,
  // the accounting is airtight.
}

// Structured mutations of well-formed frames: truncations, bad versions,
// IHL/total_len/data-offset corruption, checksum flips, absurd lengths —
// plus SYN and orphan-fragment floods, all from one seed.
TEST(MalformedFuzz, StructuredMutationsTallyIntoTaxonomy) {
  ScapKernel k(hostile_config());

  AdversaryConfig cfg;
  cfg.seed = 0xbadf00d;
  cfg.packets = 50000;
  cfg.mix = AdversaryMix{.session = 2.0, .garbage = 2.0, .mutated = 4.0,
                         .syn_flood = 1.0, .frag_flood = 2.0};
  AdversaryGen gen(cfg);

  for (std::uint64_t i = 0; i < cfg.packets; ++i) {
    const Packet pkt = gen.next();
    if (!pkt.valid()) {
      EXPECT_NE(pkt.decode_error(), DecodeError::kNone);
    }
    k.handle_packet(pkt, pkt.timestamp());
    if ((i & 0x3ff) == 0) drain(k);
  }
  k.terminate_all(Timestamp::from_sec(600));
  drain(k);

  const KernelStats& s = k.stats();
  EXPECT_EQ(taxonomy_sum(s), s.pkts_invalid);
  EXPECT_GT(s.pkts_invalid, 0u);
  // The structured mutator must actually reach distinct buckets, not just
  // tip everything into one: truncation and version corruption are both
  // guaranteed members of its repertoire.
  const auto at = [&s](DecodeError e) {
    return s.parse_errors[static_cast<std::size_t>(e)];
  };
  EXPECT_GT(at(DecodeError::kEthTruncated) + at(DecodeError::kIpTruncated) +
                at(DecodeError::kTcpTruncated),
            0u);
  EXPECT_GT(at(DecodeError::kIpBadVersion), 0u);
  EXPECT_GT(at(DecodeError::kIpBadHeaderLen), 0u);
  EXPECT_GT(at(DecodeError::kTcpBadDataOff), 0u);
  // Orphan fragments are valid packets buffered by the defragmenter, not
  // parse errors; the flood must have left datagrams pending.
  EXPECT_GT(k.defragmenter().stats().fragments_seen, 0u);
  // And the cooperative share of the mix still got through.
  EXPECT_GT(s.pkts_stored, 0u);
  EXPECT_GT(s.streams_created, 0u);
}

// The same seed must produce the same taxonomy, bucket by bucket.
TEST(MalformedFuzz, TaxonomyIsSeedDeterministic) {
  auto run = [] {
    ScapKernel k(hostile_config());
    AdversaryConfig cfg;
    cfg.seed = 0x12345;
    cfg.packets = 8000;
    cfg.mix.mutated = 5.0;
    AdversaryGen gen(cfg);
    for (std::uint64_t i = 0; i < cfg.packets; ++i) {
      const Packet pkt = gen.next();
      k.handle_packet(pkt, pkt.timestamp());
      drain(k);
    }
    std::vector<std::uint64_t> buckets(kNumDecodeErrors);
    for (std::size_t i = 0; i < kNumDecodeErrors; ++i) {
      buckets[i] = k.stats().parse_errors[i];
    }
    return buckets;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace scap::kernel
