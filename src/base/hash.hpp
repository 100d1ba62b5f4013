// Hash functions used across the capture pipeline.
//
//  - Toeplitz: the RSS hash implemented by commodity NICs. toeplitz_hash()
//    is the bit-serial reference definition, checked against the Microsoft
//    verification vectors; the NIC model's RssEngine hashes packets with
//    per-key byte tables built from the same key windows (nic/rss.hpp) and
//    is tested against this function. We also provide the symmetric-seed
//    variant of Woo & Park so both directions of a TCP connection land on
//    the same queue (paper §4.2).
//  - mix64: the splitmix64 finalizer, used for seeded bucket hashing of
//    flow tuples (hash_tuple in packet/headers.hpp — seeded, so an
//    adversary cannot precompute collisions; the paper picks a random hash
//    function at module-init time for the same reason, §5.2) and to derive
//    per-run seeds.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace scap {

/// 40-byte RSS key, as programmed into real NICs.
using RssKey = std::array<std::uint8_t, 40>;

/// Microsoft's default RSS key (the one most drivers ship with).
RssKey default_rss_key();

/// A symmetric RSS key: every 16-bit lane is identical, so swapping
/// (src ip, src port) with (dst ip, dst port) yields the same hash.
/// This is the Woo & Park construction the paper adopts in §4.2.
RssKey symmetric_rss_key(std::uint16_t lane = 0x6d5a);

/// Toeplitz hash over `input` with the given key, one input bit at a time.
/// Input is at most 36 bytes for the IPv4 4-tuple case; we support any
/// input that fits the key window.
std::uint32_t toeplitz_hash(const RssKey& key,
                            std::span<const std::uint8_t> input);

/// Mix a 64-bit value (splitmix64 finalizer).
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace scap
