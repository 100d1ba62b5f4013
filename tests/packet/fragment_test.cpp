// IP fragmentation handling: fragments decode at the network layer, carry
// no transport ports, and the kernel treats them as non-reassemblable
// traffic rather than corrupting a TCP stream.
#include <gtest/gtest.h>

#include "kernel/module.hpp"
#include "packet/checksum.hpp"
#include "packet/craft.hpp"

namespace scap {
namespace {

/// Build an IPv4 fragment (slice of a UDP datagram) by hand.
Packet make_fragment(std::uint16_t frag_off_bytes, bool more_fragments,
                     std::size_t payload_len) {
  std::vector<std::uint8_t> frame(kEthHeaderLen + 20 + payload_len, 0x5a);
  EthHeader eth{};
  eth.ether_type = kEtherTypeIpv4;
  write_eth(frame, eth);
  Ipv4Header ip{};
  ip.version = 4;
  ip.ihl = 5;
  ip.total_len = static_cast<std::uint16_t>(20 + payload_len);
  ip.frag_off = static_cast<std::uint16_t>(
      (more_fragments ? 0x2000 : 0) | (frag_off_bytes / 8));
  ip.ttl = 64;
  ip.protocol = kProtoUdp;
  ip.src_ip = 0x0a000001;
  ip.dst_ip = 0x0a000002;
  write_ipv4(std::span<std::uint8_t>(frame).subspan(kEthHeaderLen), ip);
  const std::uint16_t csum = internet_checksum(
      std::span<const std::uint8_t>(frame).subspan(kEthHeaderLen, 20));
  frame[kEthHeaderLen + 10] = static_cast<std::uint8_t>(csum >> 8);
  frame[kEthHeaderLen + 11] = static_cast<std::uint8_t>(csum & 0xff);
  return Packet::from_bytes(frame, Timestamp(0));
}

TEST(Fragments, NonFirstFragmentHasNoPorts) {
  Packet frag = make_fragment(1480, false, 100);
  ASSERT_TRUE(frag.valid());
  EXPECT_TRUE(frag.is_ip_fragment());
  EXPECT_EQ(frag.tuple().src_port, 0);
  EXPECT_EQ(frag.tuple().dst_port, 0);
  EXPECT_EQ(frag.payload_len(), 0u);  // transport payload not parseable
}

TEST(Fragments, FirstFragmentParsesTransportHeader) {
  // First fragment (offset 0, MF set) still exposes the UDP header.
  std::vector<std::uint8_t> udp_payload(64, 0x11);
  auto full = build_udp_frame({0x0a000001, 0x0a000002, 1000, 53, kProtoUdp},
                              udp_payload);
  full[kEthHeaderLen + 6] = 0x20;  // set MF in frag_off field
  // Recompute the IP checksum after the flag change.
  full[kEthHeaderLen + 10] = full[kEthHeaderLen + 11] = 0;
  const std::uint16_t csum = internet_checksum(
      std::span<const std::uint8_t>(full).subspan(kEthHeaderLen, 20));
  full[kEthHeaderLen + 10] = static_cast<std::uint8_t>(csum >> 8);
  full[kEthHeaderLen + 11] = static_cast<std::uint8_t>(csum & 0xff);

  Packet frag = Packet::from_bytes(full, Timestamp(0));
  ASSERT_TRUE(frag.valid());
  EXPECT_TRUE(frag.is_ip_fragment());
  EXPECT_EQ(frag.tuple().dst_port, 53);
}

TEST(Fragments, KernelAcceptsFragmentsWithoutCorruptingStreams) {
  kernel::KernelConfig cfg;
  cfg.memory_size = 1 << 20;
  kernel::ScapKernel k(cfg);
  Packet frag = make_fragment(1480, true, 200);
  auto out = k.handle_packet(frag, Timestamp(0));
  // Tracked as port-less network-layer traffic; nothing crashes, no TCP
  // stream is disturbed.
  EXPECT_NE(out.verdict, kernel::Verdict::kInvalid);
  k.terminate_all(Timestamp(1));
  auto& q = k.events();
  while (!q.empty()) {
    auto ev = q.pop();
    k.release_chunk(ev);
  }
  EXPECT_EQ(k.allocator().used(), 0u);
}

}  // namespace
}  // namespace scap
