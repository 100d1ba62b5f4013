// IPv4 defragmentation tests, including the fragment-overlap evasion cases
// strict mode exists to defeat.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kernel/defrag.hpp"
#include "kernel/module.hpp"
#include "packet/checksum.hpp"
#include "packet/craft.hpp"
#include "tests/kernel/test_helpers.hpp"

namespace scap::kernel {
namespace {

/// Build a UDP datagram and slice it into IP fragments of `frag_size`
/// payload bytes each (frag_size must be a multiple of 8).
std::vector<Packet> fragment_udp(const FiveTuple& tuple,
                                 const std::string& payload,
                                 std::uint16_t ip_id, std::size_t frag_size,
                                 Timestamp ts) {
  auto full = build_udp_frame(
      tuple, {reinterpret_cast<const std::uint8_t*>(payload.data()),
              payload.size()});
  // The IP payload (UDP header + data) to slice.
  const std::size_t ip_payload_len = 8 + payload.size();
  const std::uint8_t* ip_payload = full.data() + kEthHeaderLen + 20;

  std::vector<Packet> frags;
  for (std::size_t off = 0; off < ip_payload_len; off += frag_size) {
    const std::size_t len = std::min(frag_size, ip_payload_len - off);
    const bool more = off + len < ip_payload_len;
    std::vector<std::uint8_t> frame(kEthHeaderLen + 20 + len);
    EthHeader eth{};
    eth.ether_type = kEtherTypeIpv4;
    write_eth(frame, eth);
    Ipv4Header ip{};
    ip.version = 4;
    ip.ihl = 5;
    ip.total_len = static_cast<std::uint16_t>(20 + len);
    ip.id = ip_id;
    ip.frag_off =
        static_cast<std::uint16_t>((more ? 0x2000 : 0) | (off / 8));
    ip.ttl = 64;
    ip.protocol = kProtoUdp;
    ip.src_ip = tuple.src_ip;
    ip.dst_ip = tuple.dst_ip;
    write_ipv4(std::span<std::uint8_t>(frame).subspan(kEthHeaderLen), ip);
    const std::uint16_t csum = internet_checksum(
        std::span<const std::uint8_t>(frame).subspan(kEthHeaderLen, 20));
    frame[kEthHeaderLen + 10] = static_cast<std::uint8_t>(csum >> 8);
    frame[kEthHeaderLen + 11] = static_cast<std::uint8_t>(csum & 0xff);
    std::copy(ip_payload + off, ip_payload + off + len,
              frame.begin() + kEthHeaderLen + 20);
    frags.push_back(Packet::from_bytes(frame, ts));
  }
  return frags;
}

FiveTuple udp_tuple() {
  return {0x0a000001, 0x0a000002, 5000, 53, kProtoUdp};
}

TEST(Defrag, InOrderReassembly) {
  IpDefragmenter defrag;
  const std::string payload(200, 'd');
  auto frags = fragment_udp(udp_tuple(), payload, 7, 64, Timestamp(0));
  ASSERT_GE(frags.size(), 3u);
  std::optional<Packet> done;
  for (std::size_t i = 0; i < frags.size(); ++i) {
    done = defrag.feed(frags[i], Timestamp(0));
    if (i + 1 < frags.size()) {
      EXPECT_FALSE(done.has_value());
    }
  }
  ASSERT_TRUE(done.has_value());
  ASSERT_TRUE(done->valid());
  EXPECT_TRUE(done->is_udp());
  EXPECT_FALSE(done->is_ip_fragment());
  EXPECT_EQ(done->tuple(), udp_tuple());
  EXPECT_EQ(std::string(done->payload().begin(), done->payload().end()),
            payload);
  EXPECT_EQ(defrag.stats().datagrams_completed, 1u);
  EXPECT_EQ(defrag.pending(), 0u);
  EXPECT_EQ(defrag.buffered_bytes(), 0u);
}

TEST(Defrag, OutOfOrderReassembly) {
  IpDefragmenter defrag;
  const std::string payload(300, 'x');
  auto frags = fragment_udp(udp_tuple(), payload, 9, 64, Timestamp(0));
  // Feed in reverse.
  std::optional<Packet> done;
  for (auto it = frags.rbegin(); it != frags.rend(); ++it) {
    done = defrag.feed(*it, Timestamp(0));
  }
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(std::string(done->payload().begin(), done->payload().end()),
            payload);
}

TEST(Defrag, InterleavedDatagramsKeptSeparate) {
  IpDefragmenter defrag;
  const std::string pay_a(120, 'a');
  const std::string pay_b(120, 'b');
  auto fa = fragment_udp(udp_tuple(), pay_a, 1, 64, Timestamp(0));
  auto fb = fragment_udp(udp_tuple(), pay_b, 2, 64, Timestamp(0));
  std::vector<std::string> results;
  for (std::size_t i = 0; i < std::max(fa.size(), fb.size()); ++i) {
    if (i < fa.size()) {
      if (auto d = defrag.feed(fa[i], Timestamp(0))) {
        results.emplace_back(d->payload().begin(), d->payload().end());
      }
    }
    if (i < fb.size()) {
      if (auto d = defrag.feed(fb[i], Timestamp(0))) {
        results.emplace_back(d->payload().begin(), d->payload().end());
      }
    }
  }
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NE(results[0], results[1]);
}

TEST(Defrag, NonFragmentPassesThrough) {
  IpDefragmenter defrag;
  Packet p = make_udp_packet(udp_tuple(),
                             {reinterpret_cast<const std::uint8_t*>("hi"), 2},
                             Timestamp(0));
  auto out = defrag.feed(p, Timestamp(0));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->frame_buffer().get(), p.frame_buffer().get());
  EXPECT_EQ(defrag.stats().fragments_seen, 0u);
}

TEST(Defrag, IncompleteDatagramExpires) {
  IpDefragmenter defrag;
  auto frags = fragment_udp(udp_tuple(), std::string(200, 'e'), 3, 64,
                            Timestamp(0));
  defrag.feed(frags[0], Timestamp(0));
  EXPECT_EQ(defrag.pending(), 1u);
  defrag.expire(Timestamp::from_sec(60));
  EXPECT_EQ(defrag.pending(), 0u);
  EXPECT_EQ(defrag.stats().datagrams_expired, 1u);
  EXPECT_EQ(defrag.buffered_bytes(), 0u);
}

TEST(Defrag, TeardropOverflowRejected) {
  IpDefragmenter defrag;
  auto frags = fragment_udp(udp_tuple(), std::string(64, 't'), 4, 64,
                            Timestamp(0));
  // Forge an absurd fragment offset (past 64KB).
  auto frame = std::vector<std::uint8_t>(frags[0].frame().begin(),
                                         frags[0].frame().end());
  frame[kEthHeaderLen + 6] = 0x1f;
  frame[kEthHeaderLen + 7] = 0xff;  // offset 8191*8 = 65528
  Packet evil = Packet::from_bytes(frame, Timestamp(0));
  auto out = defrag.feed(evil, Timestamp(0));
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(defrag.stats().fragments_dropped_overload, 1u);
}

TEST(Defrag, MemoryCapBoundsFragmentFlood) {
  IpDefragmenter::Config cfg;
  cfg.max_buffered_bytes = 10 * 1024;
  IpDefragmenter defrag(cfg);
  // Flood with first-fragments of distinct datagrams that never complete.
  for (std::uint16_t id = 0; id < 200; ++id) {
    auto frags = fragment_udp(udp_tuple(), std::string(500, 'f'), id, 256,
                              Timestamp(0));
    defrag.feed(frags[0], Timestamp(0));
  }
  EXPECT_LE(defrag.buffered_bytes(), 10 * 1024u);
  EXPECT_GT(defrag.stats().fragments_dropped_overload, 0u);
}

TEST(Defrag, KernelEndToEndWithFragmentedDatagram) {
  KernelConfig cfg;
  cfg.memory_size = 1 << 20;
  cfg.defragment_ip = true;
  ScapKernel k(cfg);
  const std::string payload(500, 'k');
  auto frags = fragment_udp(udp_tuple(), payload, 21, 128, Timestamp(0));
  PacketOutcome out;
  for (const auto& f : frags) {
    out = k.handle_packet(f, Timestamp(0));
  }
  // The final fragment completed the datagram and stored the payload.
  EXPECT_EQ(out.verdict, Verdict::kStored);
  k.terminate_all(Timestamp(1));
  std::string delivered;
  auto& q = k.events();
  while (!q.empty()) {
    auto ev = q.pop();
    if (ev.type == EventType::kData) {
      delivered.append(ev.chunk.data.begin(), ev.chunk.data.end());
    }
    k.release_chunk(ev);
  }
  EXPECT_EQ(delivered, payload);
}

}  // namespace
}  // namespace scap::kernel
