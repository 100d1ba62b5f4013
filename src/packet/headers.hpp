// Protocol header definitions and parsing.
//
// We parse Ethernet II, IPv4, TCP, and UDP — the protocols the Scap paper's
// datapath handles. Parsing works on raw byte spans (no casts to packed
// structs; no alignment or endianness traps) and returns decoded host-order
// views.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "base/hash.hpp"

namespace scap {

constexpr std::size_t kEthHeaderLen = 14;
constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

constexpr std::uint8_t kProtoTcp = 6;
constexpr std::uint8_t kProtoUdp = 17;
constexpr std::uint8_t kProtoIcmp = 1;

/// TCP flag bits, as in the wire format's flags byte.
enum TcpFlag : std::uint8_t {
  kTcpFin = 0x01,
  kTcpSyn = 0x02,
  kTcpRst = 0x04,
  kTcpPsh = 0x08,
  kTcpAck = 0x10,
  kTcpUrg = 0x20,
};

struct EthHeader {
  std::uint8_t dst[6];
  std::uint8_t src[6];
  std::uint16_t ether_type;
};

struct Ipv4Header {
  std::uint8_t version;
  std::uint8_t ihl;          // header length in 32-bit words
  std::uint8_t dscp_ecn;
  std::uint16_t total_len;   // IP header + payload, bytes
  std::uint16_t id;
  std::uint16_t frag_off;    // flags (3 bits) + fragment offset (13 bits)
  std::uint8_t ttl;
  std::uint8_t protocol;
  std::uint16_t checksum;
  std::uint32_t src_ip;
  std::uint32_t dst_ip;

  std::size_t header_len() const { return static_cast<std::size_t>(ihl) * 4; }
  bool more_fragments() const { return (frag_off & 0x2000) != 0; }
  std::uint16_t fragment_offset_bytes() const {
    return static_cast<std::uint16_t>((frag_off & 0x1fff) * 8);
  }
};

struct TcpHeader {
  std::uint16_t src_port;
  std::uint16_t dst_port;
  std::uint32_t seq;
  std::uint32_t ack;
  std::uint8_t data_off;     // header length in 32-bit words
  std::uint8_t flags;
  std::uint16_t window;
  std::uint16_t checksum;
  std::uint16_t urgent;

  std::size_t header_len() const { return static_cast<std::size_t>(data_off) * 4; }
  bool has(TcpFlag f) const { return (flags & f) != 0; }
  bool syn() const { return has(kTcpSyn); }
  bool ack_flag() const { return has(kTcpAck); }
  bool fin() const { return has(kTcpFin); }
  bool rst() const { return has(kTcpRst); }
};

struct UdpHeader {
  std::uint16_t src_port;
  std::uint16_t dst_port;
  std::uint16_t length;      // UDP header + payload
  std::uint16_t checksum;
};

/// Canonical 5-tuple identifying a unidirectional flow.
struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;

  FiveTuple reversed() const {
    return FiveTuple{dst_ip, src_ip, dst_port, src_port, protocol};
  }

  /// Direction-independent canonical form (smaller endpoint first), used
  /// where both directions of a connection must map to the same entity.
  FiveTuple canonical() const {
    if (src_ip < dst_ip || (src_ip == dst_ip && src_port <= dst_port)) {
      return *this;
    }
    return reversed();
  }

  friend bool operator==(const FiveTuple&, const FiveTuple&) = default;
};

/// Seeded hash of a tuple, field by field (hashing the struct's raw bytes
/// would read indeterminate padding). Flow-table slots and FDIR buckets
/// are keyed by it.
constexpr std::uint64_t hash_tuple(const FiveTuple& t, std::uint64_t seed) {
  std::uint64_t h = mix64(seed ^ t.src_ip);
  h = mix64(h ^ t.dst_ip);
  return mix64(h ^ (static_cast<std::uint64_t>(t.src_port) << 32) ^
               (static_cast<std::uint64_t>(t.dst_port) << 16) ^ t.protocol);
}

std::string to_string(const FiveTuple& t);

/// Format 32-bit IP as dotted quad.
std::string ip_to_string(std::uint32_t ip);

// --- Parsing --------------------------------------------------------------

/// Why a frame failed to decode. Every undecodable frame maps to exactly one
/// reason, so the kernel's per-reason counters sum to its invalid-packet
/// count — the property the malformed-input fuzz suite checks.
enum class DecodeError : std::uint8_t {
  kNone = 0,        // decoded fine
  kEthTruncated,    // frame shorter than the Ethernet header
  kNonIpv4,         // ether_type we do not handle (ARP, IPv6, ...)
  kIpTruncated,     // IPv4 header (or its options) past the captured bytes
  kIpBadVersion,    // version field != 4
  kIpBadHeaderLen,  // IHL < 5 words
  kIpBadTotalLen,   // total_len smaller than the IP header itself
  kTcpTruncated,    // TCP header (or its options) past the captured bytes
  kTcpBadDataOff,   // data offset < 5 words
  kUdpTruncated,    // UDP header past the captured bytes
  kUdpBadLength,    // UDP length field < 8 (cannot even hold the header)
  kCount,
};

constexpr std::size_t kNumDecodeErrors =
    static_cast<std::size_t>(DecodeError::kCount);

const char* to_string(DecodeError e);

// Parsers return nullopt on malformed input and, when `error` is non-null,
// report which taxonomy bucket the rejection belongs to.
std::optional<EthHeader> parse_eth(std::span<const std::uint8_t> frame,
                                   DecodeError* error = nullptr);
std::optional<Ipv4Header> parse_ipv4(std::span<const std::uint8_t> bytes,
                                     DecodeError* error = nullptr);
std::optional<TcpHeader> parse_tcp(std::span<const std::uint8_t> bytes,
                                   DecodeError* error = nullptr);
std::optional<UdpHeader> parse_udp(std::span<const std::uint8_t> bytes,
                                   DecodeError* error = nullptr);

// --- Serialization (used by the traffic generator) -------------------------

void write_eth(std::span<std::uint8_t> out, const EthHeader& h);
void write_ipv4(std::span<std::uint8_t> out, const Ipv4Header& h);
void write_tcp(std::span<std::uint8_t> out, const TcpHeader& h);
void write_udp(std::span<std::uint8_t> out, const UdpHeader& h);

}  // namespace scap
