#include "packet/packet.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "packet/craft.hpp"

namespace scap {
namespace {

FiveTuple tuple() { return {0x0a000001, 0x0a000002, 40000, 80, kProtoTcp}; }

std::span<const std::uint8_t> payload_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Packet, DecodesTcpSegment) {
  const std::string data = "GET / HTTP/1.1\r\n";
  TcpSegmentSpec spec;
  spec.tuple = tuple();
  spec.seq = 1000;
  spec.ack = 2000;
  spec.flags = kTcpAck | kTcpPsh;
  spec.payload = payload_of(data);
  Packet p = make_tcp_packet(spec, Timestamp(123));

  ASSERT_TRUE(p.valid());
  EXPECT_TRUE(p.is_tcp());
  EXPECT_EQ(p.tuple().src_port, 40000);
  EXPECT_EQ(p.tuple().dst_port, 80);
  EXPECT_EQ(p.seq(), 1000u);
  EXPECT_EQ(p.ack(), 2000u);
  EXPECT_TRUE(p.has_flag(kTcpPsh));
  EXPECT_FALSE(p.has_flag(kTcpSyn));
  EXPECT_EQ(p.payload_len(), data.size());
  EXPECT_EQ(std::string(p.payload().begin(), p.payload().end()), data);
  EXPECT_EQ(p.timestamp().ns(), 123);
  EXPECT_EQ(p.wire_len(), kEthHeaderLen + 20 + 20 + data.size());
}

TEST(Packet, DecodesUdpDatagram) {
  const std::string data = "dns-query";
  FiveTuple t{0x0a000001, 0x0a000002, 5353, 53, kProtoUdp};
  Packet p = make_udp_packet(t, payload_of(data), Timestamp(5));
  ASSERT_TRUE(p.valid());
  EXPECT_TRUE(p.is_udp());
  EXPECT_EQ(p.tuple().dst_port, 53);
  EXPECT_EQ(p.payload_len(), data.size());
}

TEST(Packet, InvalidEtherTypeIsNotValid) {
  std::vector<std::uint8_t> junk(64, 0xab);
  Packet p = Packet::from_bytes(junk, Timestamp(0));
  EXPECT_FALSE(p.valid());
}

TEST(Packet, EmptyFrameSafe) {
  Packet p;
  EXPECT_FALSE(p.valid());
  EXPECT_EQ(p.capture_len(), 0u);
  EXPECT_TRUE(p.payload().empty());
}

TEST(Packet, SnappedKeepsWireLengths) {
  std::string data(1000, 'x');
  TcpSegmentSpec spec;
  spec.tuple = tuple();
  spec.payload = payload_of(data);
  Packet full = make_tcp_packet(spec, Timestamp(0));
  Packet snap = full.snapped(96);

  EXPECT_EQ(snap.capture_len(), 96u);
  EXPECT_EQ(snap.wire_len(), full.wire_len());
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(snap.tuple(), full.tuple());
  // Captured payload is clipped, wire payload preserved.
  EXPECT_EQ(snap.wire_payload_len(), 1000u);
  EXPECT_EQ(snap.payload_len(), 96u - (kEthHeaderLen + 20 + 20));
}

TEST(Packet, SnapShorterThanHeadersStillIpValid) {
  TcpSegmentSpec spec;
  spec.tuple = tuple();
  Packet full = make_tcp_packet(spec, Timestamp(0));
  Packet snap = full.snapped(34);  // eth + ip only
  EXPECT_EQ(snap.capture_len(), 34u);
  EXPECT_FALSE(snap.valid());  // TCP header missing
}

TEST(Packet, SharedFrameNotCopiedOnPacketCopy) {
  TcpSegmentSpec spec;
  spec.tuple = tuple();
  Packet p = make_tcp_packet(spec, Timestamp(0));
  Packet q = p;
  EXPECT_EQ(p.frame_buffer().get(), q.frame_buffer().get());
}

TEST(Packet, NonTcpUdpProtocolValidAtNetworkLayer) {
  // Craft an ICMP-ish packet by patching the protocol byte of a UDP frame.
  FiveTuple t{0x0a000001, 0x0a000002, 0, 0, kProtoUdp};
  auto frame = build_udp_frame(t, {});
  frame[kEthHeaderLen + 9] = kProtoIcmp;
  Packet p = Packet::from_bytes(frame, Timestamp(0));
  EXPECT_TRUE(p.valid());
  EXPECT_FALSE(p.is_tcp());
  EXPECT_FALSE(p.is_udp());
  EXPECT_EQ(p.tuple().src_port, 0);
}

/// The big-endian halfword a frame carries at the flex window, if any.
std::optional<std::uint16_t> frame_flex_word(const Packet& p) {
  const auto f = p.frame();
  if (f.size() < kTcpFlagsFlexOffset + 2u) return std::nullopt;
  return static_cast<std::uint16_t>((f[kTcpFlagsFlexOffset] << 8) |
                                    f[kTcpFlagsFlexOffset + 1u]);
}

void expect_flex_word_of_frame(const Packet& p) {
  const auto want = frame_flex_word(p);
  ASSERT_EQ(p.has_flex_word(), want.has_value()) << p.capture_len();
  EXPECT_EQ(p.flex_word(), want.value_or(0));
}

TEST(Packet, FlexWordIsTheFrameHalfwordAtTheFlexWindow) {
  const std::string data = "payload";
  TcpSegmentSpec spec;
  spec.tuple = tuple();
  spec.flags = kTcpAck | kTcpPsh;
  spec.payload = payload_of(data);
  const Packet p = make_tcp_packet(spec, Timestamp(1));
  expect_flex_word_of_frame(p);
  ASSERT_TRUE(p.has_flex_word());
  // Data offset 5 words, then the flags byte.
  EXPECT_EQ(p.flex_word(), 0x5000 | kTcpAck | kTcpPsh);

  // remapped() and with_flow() share the frame, so they keep its word
  // even though their tuples no longer match the frame's headers.
  const Packet r = p.remapped(0x01000000, Timestamp(2));
  expect_flex_word_of_frame(r);
  EXPECT_EQ(r.flex_word(), p.flex_word());
  FiveTuple other = tuple();
  other.src_port = 1;
  const Packet w = p.with_flow(other, 77, Timestamp(3));
  expect_flex_word_of_frame(w);
  EXPECT_EQ(w.flex_word(), p.flex_word());

  // snapped() re-decodes: 48 bytes still reach the window, 47 do not.
  const Packet at = p.snapped(kTcpFlagsFlexOffset + 2u);
  expect_flex_word_of_frame(at);
  EXPECT_TRUE(at.has_flex_word());
  for (std::uint32_t snap : {0u, 14u, 34u, kTcpFlagsFlexOffset + 1u}) {
    const Packet s = p.snapped(snap);
    expect_flex_word_of_frame(s);
    EXPECT_FALSE(s.has_flex_word()) << snap;
    EXPECT_EQ(s.flex_word(), 0) << snap;
  }
}

TEST(Packet, FlexWordIgnoresProtocol) {
  // The NIC reads the window from raw bytes: a UDP datagram or a frame
  // that does not decode has one too, as long as it is long enough.
  FiveTuple t{0x0a000001, 0x0a000002, 5353, 53, kProtoUdp};
  const std::string data = "dns-query-long-enough";
  expect_flex_word_of_frame(make_udp_packet(t, payload_of(data), Timestamp(0)));
  std::vector<std::uint8_t> junk(64);
  for (std::size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<std::uint8_t>(i * 7);
  }
  const Packet bad = Packet::from_bytes(junk, Timestamp(0));
  EXPECT_FALSE(bad.valid());
  expect_flex_word_of_frame(bad);
  EXPECT_TRUE(bad.has_flex_word());
  EXPECT_FALSE(Packet().has_flex_word());
}

}  // namespace
}  // namespace scap
