// Microbenchmarks of the datapath hot paths (google-benchmark).
//
// These measure the REAL implementation cost on the build machine —
// complementary to the cycle model in src/sim/costs.hpp, and the place to
// check that a change didn't regress the per-packet path.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "base/hash.hpp"
#include "kernel/module.hpp"
#include "kernel/reassembly.hpp"
#include "match/aho_corasick.hpp"
#include "match/corpus.hpp"
#include "nic/fdir.hpp"
#include "nic/rss.hpp"
#include "packet/craft.hpp"
#include "trace/trace.hpp"

namespace {

using namespace scap;

void BM_PacketDecode(benchmark::State& state) {
  TcpSegmentSpec spec;
  spec.tuple = {0x0a000001, 0x0a000002, 40000, 80, kProtoTcp};
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)),
                                    0x61);
  spec.payload = payload;
  auto frame = std::make_shared<const std::vector<std::uint8_t>>(
      build_tcp_frame(spec));
  for (auto _ : state) {
    Packet p = Packet::decode(frame, Timestamp(0));
    benchmark::DoNotOptimize(p);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * frame->size());
}
BENCHMARK(BM_PacketDecode)->Arg(64)->Arg(1460);

void BM_ToeplitzHash(benchmark::State& state) {
  const RssKey key = symmetric_rss_key();
  std::uint8_t input[12] = {10, 0, 0, 1, 10, 0, 0, 2, 0x9c, 0x40, 0, 80};
  for (auto _ : state) {
    benchmark::DoNotOptimize(toeplitz_hash(key, input));
    input[3]++;
  }
}
BENCHMARK(BM_ToeplitzHash);

// The table-driven engine the NIC model runs per packet (canonical order,
// 12 table loads, modulo) — compare with the bit-serial reference above.
void BM_RssQueueFor(benchmark::State& state) {
  const nic::RssEngine rss(symmetric_rss_key(), 4);
  FiveTuple t{0x0a000001, 0x0a000002, 40000, 80, kProtoTcp};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rss.queue_for(t));
    t.src_ip++;
  }
}
BENCHMARK(BM_RssQueueFor);

// FDIR match (hash included) on a table holding ~6000 filters (3000
// streams' pair of cutoff filters). Arg 1: every packet hits a drop
// filter. Arg 0: the tuples have no filter, the common case for packets
// that reach the host.
void BM_FdirMatch(benchmark::State& state) {
  const bool hit = state.range(0) != 0;
  constexpr std::uint32_t kStreams = 3000;
  nic::FdirTable table;
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < kStreams; ++i) {
    const FiveTuple t{0x0a000000 + i, 0xc0a80001,
                      static_cast<std::uint16_t>(1024 + i), 80, kProtoTcp};
    for (const auto& f : nic::make_cutoff_filters(t, Timestamp::from_sec(60))) {
      table.add(f);
    }
    TcpSegmentSpec spec;
    spec.tuple = hit ? t : t.reversed();
    spec.flags = kTcpAck;
    pkts.push_back(make_tcp_packet(spec, Timestamp(0)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Packet& pkt = pkts[i % pkts.size()];
    benchmark::DoNotOptimize(
        table.match(pkt, nic::FdirTable::hash_of(pkt.tuple())));
    ++i;
  }
}
BENCHMARK(BM_FdirMatch)->ArgName("hit")->Arg(0)->Arg(1);

void BM_TcpReassemblyInOrder(benchmark::State& state) {
  const std::size_t seg = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> payload(seg, 0x62);
  kernel::StreamParams params;
  params.chunk_size = 16 * 1024;
  for (auto _ : state) {
    state.PauseTiming();
    kernel::TcpReassembler r(params, false);
    r.on_syn(0);
    state.ResumeTiming();
    std::uint32_t s = 1;
    for (int i = 0; i < 64; ++i) {
      kernel::SegmentMeta meta;
      auto res = r.on_data(s, payload, meta);
      benchmark::DoNotOptimize(res.accepted_bytes);
      s += static_cast<std::uint32_t>(seg);
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          static_cast<std::int64_t>(seg));
}
BENCHMARK(BM_TcpReassemblyInOrder)->Arg(512)->Arg(1460);

// Arg 0: a-z filler that never leaves the root (the root-skip path).
// Arg 1: back-to-back proper prefixes of random patterns, so the state
// wanders deep into the automaton and every byte is a table load.
void BM_AhoCorasickScan(benchmark::State& state) {
  static const std::vector<std::string> patterns =
      match::make_corpus({.pattern_count = 2120});
  static const match::AhoCorasick ac(patterns);
  std::vector<std::uint8_t> data;
  data.reserve(16 * 1024);
  Rng rng(5);
  while (data.size() < 16 * 1024) {
    if (state.range(0) == 0) {
      data.push_back(static_cast<std::uint8_t>('a' + rng.bounded(26)));
      continue;
    }
    const std::string& pat = patterns[rng.bounded(patterns.size())];
    const std::size_t len = 1 + rng.bounded(pat.size() - 1);
    data.insert(data.end(), pat.begin(),
                pat.begin() + static_cast<std::ptrdiff_t>(len));
  }
  data.resize(16 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ac.scan(data));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_AhoCorasickScan)->ArgName("dense")->Arg(0)->Arg(1);

// With traced=1 a Tracer is attached before the first packet, so every
// instrumentation site takes its branch and store; the difference between
// the two runs is the trace-on cost (DESIGN.md §10).
void BM_KernelHandlePacket(benchmark::State& state) {
  kernel::KernelConfig cfg;
  cfg.memory_size = 1ull << 30;
  cfg.creation_events = false;
  kernel::ScapKernel k(cfg);
  trace::Tracer tracer(trace::TraceConfig{.ring_capacity = 1 << 14});
  if (state.range(0) != 0) k.set_tracer(&tracer);

  TcpSegmentSpec syn;
  syn.tuple = {0x0a000001, 0x0a000002, 40000, 80, kProtoTcp};
  syn.seq = 1000;
  syn.flags = kTcpSyn;
  k.handle_packet(make_tcp_packet(syn, Timestamp(0)), Timestamp(0));

  std::vector<std::uint8_t> payload(1460, 0x63);
  TcpSegmentSpec data;
  data.tuple = syn.tuple;
  data.flags = kTcpAck | kTcpPsh;
  data.payload = payload;
  Packet tmpl = make_tcp_packet(data, Timestamp(0));

  std::uint32_t seq = 1001;
  std::int64_t t = 0;
  for (auto _ : state) {
    Packet p = tmpl.with_flow(syn.tuple, seq, Timestamp(t));
    auto out = k.handle_packet(p, Timestamp(t));
    benchmark::DoNotOptimize(out);
    seq += 1460;
    t += 1000;
    // Periodically drain events so memory does not fill.
    if (!k.events(0).empty()) {
      auto ev = k.events(0).pop();
      k.release_chunk(ev);
    }
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * 1460);
}
BENCHMARK(BM_KernelHandlePacket)->ArgName("traced")->Arg(0)->Arg(1);

void BM_FlowTableLookup(benchmark::State& state) {
  kernel::FlowTable table;
  std::vector<FiveTuple> tuples;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    FiveTuple t{0x0a000000 + i, 0xc0a80001,
                static_cast<std::uint16_t>(1024 + (i % 50000)), 80,
                kProtoTcp};
    table.create(t, Timestamp(0), nullptr);
    tuples.push_back(t);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(tuples[i % tuples.size()]));
    ++i;
  }
}
BENCHMARK(BM_FlowTableLookup);

}  // namespace

BENCHMARK_MAIN();
