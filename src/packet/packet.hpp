// Packet representation used throughout the pipeline.
//
// A Packet couples an immutable, shared frame buffer with decoded metadata
// (5-tuple, TCP fields, payload window). Decoding happens once, when the
// packet is created; queues and pipeline stages then copy only the small
// metadata block plus a reference-counted pointer — mirroring how real
// capture stacks pass descriptors around, not frame bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "base/clock.hpp"
#include "packet/headers.hpp"

namespace scap {

using FrameBuffer = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Frame byte offset of the TCP offset/reserved/flags halfword for a frame
/// with no IP options (Ethernet 14 + IPv4 20 + TCP offset 12): the one
/// flex-byte window the NIC's FDIR filters match on (paper §5.5).
constexpr std::uint8_t kTcpFlagsFlexOffset = 14 + 20 + 12;

class Packet {
 public:
  Packet() = default;

  /// Decode a captured frame. `wire_len` is the original on-the-wire length
  /// (>= frame size when the capture was snapped); 0 means "frame size".
  static Packet decode(FrameBuffer frame, Timestamp ts, std::uint32_t wire_len = 0);

  /// Convenience: copy raw bytes into a new frame buffer and decode.
  static Packet from_bytes(std::span<const std::uint8_t> bytes, Timestamp ts,
                           std::uint32_t wire_len = 0);

  bool valid() const { return valid_; }
  /// Why decoding failed (kNone when valid()). Invalid packets map to
  /// exactly one taxonomy bucket.
  DecodeError decode_error() const { return decode_error_; }
  Timestamp timestamp() const { return ts_; }
  void set_timestamp(Timestamp ts) { ts_ = ts; }

  /// Original length on the wire (what rate/occupancy calculations use).
  std::uint32_t wire_len() const { return wire_len_; }
  /// Captured length (bytes actually present in the frame buffer).
  std::uint32_t capture_len() const {
    return frame_ ? static_cast<std::uint32_t>(frame_->size()) : 0;
  }

  const FiveTuple& tuple() const { return tuple_; }
  bool is_tcp() const { return tuple_.protocol == kProtoTcp; }
  bool is_udp() const { return tuple_.protocol == kProtoUdp; }

  // TCP-only fields (zero for non-TCP).
  std::uint8_t tcp_flags() const { return tcp_flags_; }
  std::uint32_t seq() const { return seq_; }
  std::uint32_t ack() const { return ack_; }
  bool has_flag(TcpFlag f) const { return (tcp_flags_ & f) != 0; }

  /// Transport payload present in the captured frame.
  std::span<const std::uint8_t> payload() const {
    if (!frame_ || payload_len_ == 0) return {};
    return std::span<const std::uint8_t>(*frame_).subspan(payload_off_, payload_len_);
  }
  std::uint32_t payload_len() const { return payload_len_; }
  /// Payload length on the wire (may exceed captured payload when snapped).
  std::uint32_t wire_payload_len() const { return wire_payload_len_; }

  std::span<const std::uint8_t> frame() const {
    if (!frame_) return {};
    return std::span<const std::uint8_t>(*frame_);
  }
  const FrameBuffer& frame_buffer() const { return frame_; }

  /// The big-endian halfword at kTcpFlagsFlexOffset, read from the raw
  /// frame whatever its protocol — what the NIC's flex-byte window sees.
  /// Absent (and 0) when the captured frame is too short to reach it.
  bool has_flex_word() const { return has_flex_word_; }
  std::uint16_t flex_word() const { return flex_word_; }

  /// IP-fragmentation status (strict reassembly cares).
  bool is_ip_fragment() const { return ip_fragment_; }

  /// Re-create this packet truncated to `snaplen` captured bytes, keeping the
  /// original wire length (models snaplen-limited capture, e.g. YAF's 96B).
  Packet snapped(std::uint32_t snaplen) const;

  /// Copy of this packet with both IPs shifted by `ip_offset` and a new
  /// timestamp, sharing the same frame bytes. Used by the looped-trace
  /// replayer so every loop iteration contributes distinct flows without
  /// duplicating frame memory (header bytes intentionally stay stale: the
  /// pipeline keys on the decoded tuple).
  Packet remapped(std::uint32_t ip_offset, Timestamp ts) const;

  /// Copy of this packet with tuple, TCP sequence, and timestamp replaced,
  /// sharing the same frame bytes. Lets generators stamp out millions of
  /// metadata-distinct packets from one crafted template without allocating
  /// a frame per packet.
  Packet with_flow(const FiveTuple& tuple, std::uint32_t seq,
                   Timestamp ts) const;

 private:
  Timestamp ts_;
  FrameBuffer frame_;
  std::uint32_t wire_len_ = 0;
  FiveTuple tuple_;
  std::uint8_t tcp_flags_ = 0;
  std::uint32_t seq_ = 0;
  std::uint32_t ack_ = 0;
  std::uint16_t payload_off_ = 0;
  // Decoded with the headers, so the NIC classifies without touching the
  // frame; remapped()/with_flow() share the frame and keep it.
  std::uint16_t flex_word_ = 0;
  std::uint32_t payload_len_ = 0;
  std::uint32_t wire_payload_len_ = 0;
  bool valid_ = false;
  bool ip_fragment_ = false;
  DecodeError decode_error_ = DecodeError::kNone;
  bool has_flex_word_ = false;
};

// The flex word rides in what was padding: descriptor copies stay 72 bytes.
static_assert(sizeof(Packet) == 72);

}  // namespace scap
