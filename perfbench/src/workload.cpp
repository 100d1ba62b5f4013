// The three named workloads, their ground truth and the validator.
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "base/hash.hpp"
#include "bench.hpp"
#include "match/corpus.hpp"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"nids_match", "flow_export",
                                                 "stream_sharded"};
  return names;
}

const std::vector<std::string>& vrt_patterns() {
  static const std::vector<std::string> patterns =
      match::make_corpus({.pattern_count = 2120});
  return patterns;
}

bool find_workload(const std::string& name, std::uint64_t seed, bool tiny,
                   WorkloadSpec& out) {
  WorkloadSpec w;
  w.name = name;
  w.gen.seed = seed;
  // Campus mix, elephants capped so one seed's largest flow cannot dominate
  // the trace (the uncapped Pareto tail swings trace size several-fold).
  w.gen.flows = tiny ? 60 : 2500;
  w.gen.sizes.max_bytes = 2ull << 20;
  if (name == "nids_match") {
    // Fig. 6: inline NIDS, VRT-like patterns planted in 15 % of flows.
    w.gen.patterns = vrt_patterns();
    w.gen.plant_probability = 0.15;
    w.app = AppKind::kMatch;
  } else if (name == "stream_sharded") {
    // Fig. 4/10: full stream delivery on two worker shards.
    w.workers = 2;
    w.app = AppKind::kDigest;
    w.passes = tiny ? 2 : 4;
  } else if (name == "flow_export") {
    // Fig. 3: cutoff 0 with FDIR; 64-byte segments of the flow-size body,
    // arrivals squeezed into 10 ms so about 1500 streams are live at once
    // and the flow and FDIR tables outgrow the caches.
    w.gen.flows = tiny ? 60 : 6000;
    w.gen.mss = 64;
    w.gen.sizes.tail_probability = 0.0;
    w.gen.sizes.max_bytes = 16u << 10;
    w.gen.duration_sec = 0.01;
    w.cutoff = 0;
    w.fdir = true;
    w.app = AppKind::kExport;
  } else {
    return false;
  }
  out = std::move(w);
  return true;
}

flowgen::Trace make_trace(const WorkloadSpec& spec) {
  flowgen::Trace trace = flowgen::build_trace(spec.gen);
  const std::size_t base = trace.packets.size();
  if (spec.passes <= 1 || base == 0) return trace;
  // Each pass lands on its own /12 of both address ranges, one second after
  // the previous pass ends; the frames themselves are shared.
  const scap::Duration shift =
      scap::Duration::from_sec(trace.natural_duration_sec + 1.0);
  trace.packets.reserve(base * static_cast<std::size_t>(spec.passes));
  const auto flows = trace.flows;
  for (int pass = 1; pass < spec.passes; ++pass) {
    const auto offset = static_cast<std::uint32_t>(pass) << 20;
    for (std::size_t i = 0; i < base; ++i) {
      const Packet& p = trace.packets[i];
      trace.packets.push_back(
          p.remapped(offset, p.timestamp() + shift * pass));
    }
    for (flowgen::FlowTruth f : flows) {
      f.tuple.src_ip += offset;
      f.tuple.dst_ip += offset;
      trace.flows.push_back(f);
    }
  }
  const auto k = static_cast<std::uint64_t>(spec.passes);
  trace.total_wire_bytes *= k;
  trace.total_payload_bytes *= k;
  trace.planted_matches *= k;
  trace.natural_duration_sec = trace.packets.back().timestamp().sec();
  return trace;
}

TupleKey::TupleKey(const scap::FiveTuple& t)
    : hi((static_cast<std::uint64_t>(t.src_ip) << 32) | t.dst_ip),
      lo((static_cast<std::uint64_t>(t.src_port) << 24) |
         (static_cast<std::uint64_t>(t.dst_port) << 8) | t.protocol) {}

std::uint64_t TupleKey::hash() const {
  return scap::mix64(hi ^ scap::mix64(lo));
}

namespace {
inline std::uint64_t word_hash(std::uint64_t word, std::uint64_t index) {
  return scap::mix64(word ^ (index * 0x9e3779b97f4a7c15ULL));
}
}  // namespace

void StreamDigest::fold(std::span<const std::uint8_t> data) {
  std::size_t i = 0;
  auto fold_byte = [this](std::uint8_t b) {
    word_ |= static_cast<std::uint64_t>(b) << (8 * (bytes_ & 7));
    if ((++bytes_ & 7) == 0) {
      acc_ += word_hash(word_, (bytes_ >> 3) - 1);
      word_ = 0;
    }
  };
  // Finish a word left open by the previous piece.
  while (i < data.size() && (bytes_ & 7) != 0) fold_byte(data[i++]);
  if ((bytes_ & 7) == 0) {
    // Whole words, loaded little-endian like the byte path assembles them.
    std::uint64_t index = bytes_ >> 3;
    for (; i + 8 <= data.size(); i += 8) {
      std::uint64_t w;
      std::memcpy(&w, data.data() + i, 8);
      acc_ += word_hash(w, index++);
    }
    bytes_ = index << 3;
  }
  while (i < data.size()) fold_byte(data[i++]);
}

std::uint64_t StreamDigest::finish(const TupleKey& key) const {
  std::uint64_t acc = acc_;
  if ((bytes_ & 7) != 0) acc += word_hash(word_, bytes_ >> 3);
  return scap::mix64(acc ^ key.hash() ^ scap::mix64(bytes_));
}

namespace {
struct KeyHash {
  std::size_t operator()(const TupleKey& k) const { return k.hash(); }
};
}  // namespace

Expected expected_for(const WorkloadSpec& spec, const flowgen::Trace& trace) {
  Expected e;
  e.packets = trace.packets.size();
  if (spec.app == AppKind::kMatch) e.matches = trace.planted_matches;
  if (spec.cutoff == 0) return e;  // nothing reaches the application
  if (spec.cutoff > 0) throw std::logic_error("partial cutoffs unsupported");
  struct Ref {
    StreamDigest digest;
    std::uint32_t next_seq = 0;
    bool started = false;
  };
  std::unordered_map<TupleKey, Ref, KeyHash> streams;
  for (const Packet& p : trace.packets) {
    if (p.payload_len() == 0) continue;
    Ref& r = streams[TupleKey(p.tuple())];
    // The reference is the payload in sequence order; the generator emits
    // each direction in order, which this check pins.
    if (p.is_tcp()) {
      if (r.started && p.seq() != r.next_seq) {
        throw std::runtime_error("generated stream not in sequence order");
      }
      r.next_seq = p.seq() + p.payload_len();
    }
    r.started = true;
    r.digest.fold(p.payload());
  }
  for (const auto& [key, r] : streams) {
    e.delivered_bytes += r.digest.bytes();
    e.digest += r.digest.finish(key);
    ++e.delivered_streams;
  }
  if (e.delivered_bytes != trace.total_payload_bytes) {
    throw std::runtime_error("reference bytes differ from generator total");
  }
  return e;
}

Observed observe(const scap::kernel::KernelStats& k, std::uint64_t nic_drops,
                 std::uint64_t offered, std::string invariants) {
  Observed got;
  got.packets_offered = offered;
  got.packets_accounted = k.pkts_seen + nic_drops;
  got.lost = k.pkts_ppl_dropped + k.pkts_nomem_dropped +
             k.pkts_norec_dropped + k.ring_shed_pkts;
  got.streams_created = k.streams_created;
  got.invariants = std::move(invariants);
  return got;
}

std::vector<std::string> validate(const WorkloadSpec& spec,
                                  const Expected& want, const Observed& got) {
  std::vector<std::string> err;
  auto check = [&err](bool ok, const std::string& what, std::uint64_t g,
                      std::uint64_t w) {
    if (!ok) {
      err.push_back(what + ": got " + std::to_string(g) + ", want " +
                    std::to_string(w));
    }
  };
  check(got.packets_offered == want.packets, "packets offered",
        got.packets_offered, want.packets);
  check(got.packets_accounted == want.packets,
        "packets accounted (kernel + NIC filter)", got.packets_accounted,
        want.packets);
  check(got.lost == 0, "packets lost", got.lost, 0);
  check(got.delivered_bytes == want.delivered_bytes, "delivered bytes",
        got.delivered_bytes, want.delivered_bytes);
  check(got.delivered_streams == want.delivered_streams,
        "streams with delivered bytes", got.delivered_streams,
        want.delivered_streams);
  check(got.digest == want.digest, "delivered-bytes digest", got.digest,
        want.digest);
  if (spec.app == AppKind::kMatch) {
    check(got.matches == want.matches, "pattern matches", got.matches,
          want.matches);
  }
  if (spec.app == AppKind::kExport) {
    check(got.records == got.streams_created && got.records > 0,
          "flow records vs streams created", got.records, got.streams_created);
    check(got.ipfix_roundtrip, "IPFIX round trip", 0, 1);
  }
  if (!got.invariants.empty()) err.push_back("invariants: " + got.invariants);
  return err;
}

std::string validator_self_check(const WorkloadSpec& spec,
                                 const Expected& want, const Observed& got) {
  Expected flipped = want;
  flipped.digest ^= 0xffull << 24;  // one flipped byte
  if (validate(spec, flipped, got).empty()) {
    return "validator accepted a flipped digest byte";
  }
  if (spec.app == AppKind::kMatch) {
    Expected off = want;
    off.matches += 1;
    if (validate(spec, off, got).empty()) {
      return "validator accepted a match count off by one";
    }
  }
  if (spec.app == AppKind::kExport) {
    Observed extra = got;
    extra.records += 1;
    if (validate(spec, want, extra).empty()) {
      return "validator accepted a record count off by one";
    }
  }
  return {};
}

}  // namespace perfbench
