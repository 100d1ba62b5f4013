#include "packet/packet.hpp"

#include <cstring>

#include "base/bytes.hpp"

namespace scap {

Packet Packet::decode(FrameBuffer frame, Timestamp ts, std::uint32_t wire_len) {
  Packet p;
  p.ts_ = ts;
  p.frame_ = std::move(frame);
  if (!p.frame_) {
    p.decode_error_ = DecodeError::kEthTruncated;
    return p;
  }
  const auto bytes = std::span<const std::uint8_t>(*p.frame_);
  p.wire_len_ = wire_len ? wire_len : static_cast<std::uint32_t>(bytes.size());
  if (bytes.size() >= kTcpFlagsFlexOffset + 2u) {
    p.flex_word_ = load_be16(bytes.data() + kTcpFlagsFlexOffset);
    p.has_flex_word_ = true;
  }

  const auto eth = parse_eth(bytes, &p.decode_error_);
  if (!eth) return p;
  if (eth->ether_type != kEtherTypeIpv4) {
    p.decode_error_ = DecodeError::kNonIpv4;
    return p;
  }
  const auto ip_bytes = bytes.subspan(kEthHeaderLen);
  const auto ip = parse_ipv4(ip_bytes, &p.decode_error_);
  if (!ip) return p;

  p.tuple_.src_ip = ip->src_ip;
  p.tuple_.dst_ip = ip->dst_ip;
  p.tuple_.protocol = ip->protocol;
  p.ip_fragment_ = ip->more_fragments() || ip->fragment_offset_bytes() != 0;

  // Transport parsing only applies to the first fragment.
  const std::size_t l4_off = kEthHeaderLen + ip->header_len();
  // Wire-level L3 payload length comes from the IP total_len field, so a
  // snapped capture still knows the true payload size.
  const std::size_t ip_payload_wire =
      ip->total_len > ip->header_len() ? ip->total_len - ip->header_len() : 0;
  if (ip->fragment_offset_bytes() != 0) {
    p.valid_ = true;  // valid IP, but no transport header to parse
    return p;
  }
  const auto l4 = bytes.size() > l4_off ? bytes.subspan(l4_off)
                                        : std::span<const std::uint8_t>{};

  if (ip->protocol == kProtoTcp) {
    const auto tcp = parse_tcp(l4, &p.decode_error_);
    if (!tcp) return p;
    p.tuple_.src_port = tcp->src_port;
    p.tuple_.dst_port = tcp->dst_port;
    p.tcp_flags_ = tcp->flags;
    p.seq_ = tcp->seq;
    p.ack_ = tcp->ack;
    const std::size_t pay_off = l4_off + tcp->header_len();
    p.payload_off_ = static_cast<std::uint16_t>(pay_off);
    p.payload_len_ = bytes.size() > pay_off
                         ? static_cast<std::uint32_t>(bytes.size() - pay_off)
                         : 0;
    p.wire_payload_len_ =
        ip_payload_wire > tcp->header_len()
            ? static_cast<std::uint32_t>(ip_payload_wire - tcp->header_len())
            : 0;
    // Captured payload can never exceed the wire payload (trailing pad).
    if (p.payload_len_ > p.wire_payload_len_) p.payload_len_ = p.wire_payload_len_;
    p.valid_ = true;
  } else if (ip->protocol == kProtoUdp) {
    const auto udp = parse_udp(l4, &p.decode_error_);
    if (!udp) return p;
    p.tuple_.src_port = udp->src_port;
    p.tuple_.dst_port = udp->dst_port;
    const std::size_t pay_off = l4_off + 8;
    p.payload_off_ = static_cast<std::uint16_t>(pay_off);
    p.payload_len_ = bytes.size() > pay_off
                         ? static_cast<std::uint32_t>(bytes.size() - pay_off)
                         : 0;
    p.wire_payload_len_ =
        udp->length > 8 ? static_cast<std::uint32_t>(udp->length - 8) : 0;
    if (p.payload_len_ > p.wire_payload_len_) p.payload_len_ = p.wire_payload_len_;
    p.valid_ = true;
  } else {
    // Other IP protocols: valid at the network layer, no ports.
    p.valid_ = true;
  }
  return p;
}

Packet Packet::from_bytes(std::span<const std::uint8_t> bytes, Timestamp ts,
                          std::uint32_t wire_len) {
  auto buf = std::make_shared<std::vector<std::uint8_t>>(bytes.begin(), bytes.end());
  return decode(std::move(buf), ts, wire_len);
}

Packet Packet::remapped(std::uint32_t ip_offset, Timestamp ts) const {
  Packet p = *this;
  p.ts_ = ts;
  p.tuple_.src_ip += ip_offset;
  p.tuple_.dst_ip += ip_offset;
  return p;
}

Packet Packet::with_flow(const FiveTuple& tuple, std::uint32_t seq,
                         Timestamp ts) const {
  Packet p = *this;
  p.tuple_ = tuple;
  p.seq_ = seq;
  p.ts_ = ts;
  return p;
}

Packet Packet::snapped(std::uint32_t snaplen) const {
  if (!frame_ || frame_->size() <= snaplen) return *this;
  auto buf = std::make_shared<std::vector<std::uint8_t>>(
      frame_->begin(), frame_->begin() + snaplen);
  return decode(std::move(buf), ts_, wire_len_);
}

}  // namespace scap
