#include "export/ipfix.hpp"

#include <cstring>

#include "base/bytes.hpp"

namespace scap::exporter {
namespace {

// (IE id, field length) pairs of template 256, in record order.
struct FieldSpec {
  std::uint16_t ie;
  std::uint16_t len;
};
constexpr FieldSpec kFields[] = {
    {8, 4},    // sourceIPv4Address
    {12, 4},   // destinationIPv4Address
    {7, 2},    // sourceTransportPort
    {11, 2},   // destinationTransportPort
    {4, 1},    // protocolIdentifier
    {1, 8},    // octetDeltaCount
    {2, 8},    // packetDeltaCount
    {152, 8},  // flowStartMilliseconds
    {153, 8},  // flowEndMilliseconds
};
constexpr std::uint16_t kRecordLen = 4 + 4 + 2 + 2 + 1 + 8 + 8 + 8 + 8;

void put16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}
void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put16(out, static_cast<std::uint16_t>(v >> 16));
  put16(out, static_cast<std::uint16_t>(v));
}
void put64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put32(out, static_cast<std::uint32_t>(v >> 32));
  put32(out, static_cast<std::uint32_t>(v));
}

std::uint64_t get64(const std::uint8_t* p) {
  return (static_cast<std::uint64_t>(load_be32(p)) << 32) | load_be32(p + 4);
}

}  // namespace

std::vector<std::uint8_t> IpfixWriter::encode(
    std::span<const FlowRecord> records, Timestamp export_time,
    bool force_template) {
  const bool with_template = !template_sent_ || force_template;
  // The whole message is one allocation: header, optional template set,
  // data set header, then the records.
  constexpr std::size_t kTemplateSetLen =
      4 + 4 + 4 * (sizeof(kFields) / sizeof(kFields[0]));
  std::vector<std::uint8_t> out;
  out.reserve(16 + (with_template ? kTemplateSetLen : 0) +
              (records.empty() ? 0 : 4 + kRecordLen * records.size()));
  // Message header (length patched at the end).
  put16(out, kIpfixVersion);
  put16(out, 0);  // length placeholder
  put32(out, static_cast<std::uint32_t>(export_time.sec()));
  put32(out, sequence_);
  put32(out, domain_);

  if (with_template) {
    // Template set: header + one template record.
    put16(out, kTemplateSetId);
    put16(out, static_cast<std::uint16_t>(kTemplateSetLen));
    put16(out, kFlowTemplateId);
    put16(out, static_cast<std::uint16_t>(sizeof(kFields) /
                                          sizeof(kFields[0])));
    for (const FieldSpec& f : kFields) {
      put16(out, f.ie);
      put16(out, f.len);
    }
    template_sent_ = true;
  }

  if (!records.empty()) {
    put16(out, kFlowTemplateId);  // data set id = template id
    put16(out, static_cast<std::uint16_t>(4 + kRecordLen * records.size()));
    for (const FlowRecord& r : records) {
      put32(out, r.tuple.src_ip);
      put32(out, r.tuple.dst_ip);
      put16(out, r.tuple.src_port);
      put16(out, r.tuple.dst_port);
      out.push_back(r.tuple.protocol);
      put64(out, r.bytes);
      put64(out, r.packets);
      put64(out, static_cast<std::uint64_t>(r.first_seen.usec() / 1000));
      put64(out, static_cast<std::uint64_t>(r.last_seen.usec() / 1000));
    }
    sequence_ += static_cast<std::uint32_t>(records.size());
  }

  // Patch the message length.
  out[2] = static_cast<std::uint8_t>(out.size() >> 8);
  out[3] = static_cast<std::uint8_t>(out.size());
  return out;
}

std::optional<IpfixReader::Message> IpfixReader::decode(
    std::span<const std::uint8_t> data) {
  if (data.size() < 16) return std::nullopt;
  const std::uint8_t* p = data.data();
  if (load_be16(p) != kIpfixVersion) return std::nullopt;
  const std::uint16_t msg_len = load_be16(p + 2);
  if (msg_len < 16 || msg_len > data.size()) return std::nullopt;

  Message msg;
  msg.export_time_sec = load_be32(p + 4);
  msg.sequence = load_be32(p + 8);
  msg.domain = load_be32(p + 12);

  std::size_t off = 16;
  while (off + 4 <= msg_len) {
    const std::uint16_t set_id = load_be16(p + off);
    const std::uint16_t set_len = load_be16(p + off + 2);
    if (set_len < 4 || off + set_len > msg_len) return std::nullopt;

    if (set_id == kTemplateSetId) {
      // Validate it describes our template; learn the record length.
      std::size_t toff = off + 4;
      if (toff + 4 > off + set_len) return std::nullopt;
      const std::uint16_t tid = load_be16(p + toff);
      const std::uint16_t nfields = load_be16(p + toff + 2);
      toff += 4;
      std::uint16_t rec_len = 0;
      for (std::uint16_t f = 0; f < nfields; ++f) {
        if (toff + 4 > off + set_len) return std::nullopt;
        rec_len = static_cast<std::uint16_t>(rec_len +
                                             load_be16(p + toff + 2));
        toff += 4;
      }
      if (tid == kFlowTemplateId) record_length_ = rec_len;
    } else if (set_id == kFlowTemplateId) {
      if (record_length_ != kRecordLen) {
        return std::nullopt;  // data before (or with wrong) template
      }
      std::size_t roff = off + 4;
      while (roff + kRecordLen <= off + set_len) {
        const std::uint8_t* r = p + roff;
        FlowRecord rec;
        rec.tuple.src_ip = load_be32(r);
        rec.tuple.dst_ip = load_be32(r + 4);
        rec.tuple.src_port = load_be16(r + 8);
        rec.tuple.dst_port = load_be16(r + 10);
        rec.tuple.protocol = r[12];
        rec.bytes = get64(r + 13);
        rec.packets = get64(r + 21);
        rec.first_seen =
            Timestamp(static_cast<std::int64_t>(get64(r + 29)) * 1'000'000);
        rec.last_seen =
            Timestamp(static_cast<std::int64_t>(get64(r + 37)) * 1'000'000);
        msg.records.push_back(rec);
        roff += kRecordLen;
      }
    }
    // Unknown sets are skipped (forward compatibility).
    off += set_len;
  }
  return msg;
}

}  // namespace scap::exporter
