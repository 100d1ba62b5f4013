#include "kernel/defrag.hpp"

#include <cstring>
#include <span>

#include "base/bytes.hpp"
#include "packet/checksum.hpp"
#include "packet/headers.hpp"

namespace scap::kernel {

IpDefragmenter::IpDefragmenter() : IpDefragmenter(Config{}) {}

std::optional<Packet> IpDefragmenter::try_complete(const Key& key,
                                                   PendingDatagram& dg,
                                                   Timestamp ts) {
  if (!dg.total_len.has_value() || dg.ip_header.empty()) return std::nullopt;
  const std::uint64_t before = dg.store.buffered_bytes();
  auto run = dg.store.pop_contiguous(0);
  if (!run.has_value()) return std::nullopt;
  if (run->size() < *dg.total_len) {
    // Contiguous prefix but the tail is still missing: put it back. If the
    // re-insert hits an injected allocation failure the prefix is lost like
    // any other dropped fragment; fix the byte accounting to match.
    auto back = dg.store.insert(0, *run, config_.policy);
    if (back.failed) {
      buffered_bytes_ -=
          std::min<std::uint64_t>(buffered_bytes_, run->size());
      ++stats_.fragments_dropped_alloc;
    }
    return std::nullopt;
  }
  // Clip any overshoot from overlapping tails.
  const std::span<const std::uint8_t> payload(run->data(), *dg.total_len);
  const std::uint64_t freed = before - dg.store.buffered_bytes();
  buffered_bytes_ -= std::min<std::uint64_t>(buffered_bytes_, freed);

  // Rebuild an unfragmented frame: Ethernet + original IP header (flags and
  // offset cleared, total_len fixed up) + reassembled payload.
  const std::size_t ip_hlen = dg.ip_header.size();
  std::vector<std::uint8_t> frame(kEthHeaderLen + ip_hlen + payload.size());
  EthHeader eth{};
  eth.ether_type = kEtherTypeIpv4;
  write_eth(frame, eth);
  std::memcpy(frame.data() + kEthHeaderLen, dg.ip_header.data(), ip_hlen);
  std::uint8_t* ip = frame.data() + kEthHeaderLen;
  store_be16(ip + 2, static_cast<std::uint16_t>(ip_hlen + payload.size()));
  store_be16(ip + 6, 0);   // clear MF + fragment offset
  store_be16(ip + 10, 0);  // recompute checksum
  const std::uint16_t csum = internet_checksum(
      std::span<const std::uint8_t>(ip, ip_hlen));
  ip[10] = static_cast<std::uint8_t>(csum >> 8);
  ip[11] = static_cast<std::uint8_t>(csum & 0xff);
  std::memcpy(frame.data() + kEthHeaderLen + ip_hlen, payload.data(),
              payload.size());

  (void)key;
  ++stats_.datagrams_completed;
  return Packet::from_bytes(frame, ts);
}

std::optional<Packet> IpDefragmenter::feed(const Packet& pkt, Timestamp now) {
  if (!pkt.valid() || !pkt.is_ip_fragment()) return pkt;
  ++stats_.fragments_seen;

  const auto frame = pkt.frame();
  const auto ip = parse_ipv4(frame.subspan(kEthHeaderLen));
  if (!ip) return std::nullopt;
  const std::size_t ip_hlen = ip->header_len();
  const std::size_t frag_data_off = kEthHeaderLen + ip_hlen;
  if (frame.size() <= frag_data_off) return std::nullopt;
  const auto data = frame.subspan(frag_data_off);
  const std::uint32_t frag_off = ip->fragment_offset_bytes();

  if (frag_off + data.size() > config_.max_datagram_bytes) {
    ++stats_.fragments_dropped_overload;
    return std::nullopt;  // teardrop-style overflow attempt
  }
  if (buffered_bytes_ + data.size() > config_.max_buffered_bytes) {
    ++stats_.fragments_dropped_overload;
    return std::nullopt;
  }

  const Key key{ip->src_ip, ip->dst_ip, ip->id, ip->protocol};
  // scap-lint: allow(hot-alloc) fragment buffering allocates by design, bounded by max_buffered_bytes (DESIGN.md §14 inventory)
  PendingDatagram& dg = pending_[key];
  if (dg.store.empty() && !dg.total_len.has_value()) {
    dg.first_seen = now;
  }
  if (frag_off == 0) {
    // scap-lint: allow(hot-alloc) copies the offset-0 IP header once per datagram, <= 60 bytes (DESIGN.md §14 inventory)
    dg.ip_header.assign(frame.begin() + kEthHeaderLen,
                        frame.begin() + static_cast<std::ptrdiff_t>(
                                            kEthHeaderLen + ip_hlen));
  }
  if (!ip->more_fragments()) {
    dg.total_len = frag_off + static_cast<std::uint32_t>(data.size());
  }
  const std::uint64_t before = dg.store.buffered_bytes();
  auto ins = dg.store.insert(frag_off, data, config_.policy);
  buffered_bytes_ += dg.store.buffered_bytes() - before;
  if (ins.failed) {
    // Allocation failed: this fragment is dropped; whatever the datagram
    // already buffered stays pending and may still complete or expire.
    ++stats_.fragments_dropped_alloc;
    return std::nullopt;
  }
  if (ins.conflict) ++stats_.overlap_conflicts;

  auto done = try_complete(key, dg, now);
  if (done.has_value()) pending_.erase(key);
  return done;
}

void IpDefragmenter::expire(Timestamp now) {
  // scap-lint: allow(taint-addr-order) per-entry effects commute: expiry only erases entries and bumps one counter; nothing is emitted in iteration order
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now - it->second.first_seen >= config_.timeout) {
      buffered_bytes_ -= std::min<std::uint64_t>(
          buffered_bytes_, it->second.store.buffered_bytes());
      it = pending_.erase(it);
      ++stats_.datagrams_expired;
    } else {
      ++it;
    }
  }
}

}  // namespace scap::kernel
