// Steady-state allocation test: the dynamic twin of the static guarantee
// tools/scap_callgraph.py proves (DESIGN.md §14). The analyzer shows no
// `operator new` is *reachable* from the SCAP_HOT roots outside waivered
// amortized sites; this test replaces the global allocator with counting
// hooks and shows those amortized sites actually reach zero: once the flow
// table and record pool cover the working set, per-packet lookup work
// performs literally no allocations. The same holds for the batched kernel
// entry on streams past their cutoff, for chunk delivery (reassembly,
// chunk buffers, event queue, release), and for NIC classify: FDIR match
// and RSS on a populated filter table.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "kernel/flow_table.hpp"
#include "kernel/module.hpp"
#include "kernel/record_pool.hpp"
#include "nic/nic.hpp"
#include "packet/craft.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// The replacement operator-new family above is malloc/aligned_alloc backed,
// so free() is the correct deallocator for every pointer reaching these —
// GCC's pairing heuristic cannot see that and flags inlined call sites.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace scap::kernel {
namespace {

FiveTuple tuple_for(std::uint16_t port) {
  return {0x0a000001, 0x0a000002, port, 80, kProtoTcp};
}

// The per-packet lookup work — hash, probe, LRU re-link — on a warm table
// must not touch the allocator at all. No waivered amortized site is even
// on this path; the static closure for FlowTable::find/touch is clean, and
// this pins it dynamically.
TEST(SteadyStateAlloc, FlowLookupIsAllocFree) {
  constexpr std::uint16_t kFlows = 256;
  constexpr int kRounds = 1000;

  FlowTable table;
  for (std::uint16_t p = 0; p < kFlows; ++p) {
    ASSERT_NE(table.create(tuple_for(p), Timestamp(p), nullptr), nullptr);
  }

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t hits = 0;
  Timestamp now(kFlows);
  for (int round = 0; round < kRounds; ++round) {
    for (std::uint16_t p = 0; p < kFlows; ++p) {
      StreamRecord* rec = table.find(tuple_for(p));
      if (rec != nullptr) {
        table.touch(*rec, now);
        ++hits;
      }
      now = now + Duration::from_usec(1);
    }
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(hits, static_cast<std::uint64_t>(kFlows) * kRounds);
  EXPECT_EQ(after - before, 0u)
      << "flow lookup steady state allocated " << (after - before)
      << " time(s)";
}

// Misses (tuples that were never created) probe and return nullptr — also
// alloc-free.
TEST(SteadyStateAlloc, FlowLookupMissIsAllocFree) {
  FlowTable table;
  for (std::uint16_t p = 0; p < 64; ++p) {
    ASSERT_NE(table.create(tuple_for(p), Timestamp(p), nullptr), nullptr);
  }

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t misses = 0;
  for (int round = 0; round < 1000; ++round) {
    for (std::uint16_t p = 1000; p < 1064; ++p) {
      if (table.find(tuple_for(p)) == nullptr) ++misses;
    }
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(misses, 64u * 1000u);
  EXPECT_EQ(after - before, 0u);
}

// The whole batched kernel entry on established streams past their cutoff:
// ScapKernel::handle_batch (lookup, touch, cutoff discard) in 32-packet
// batches, each followed by an event drain, as a capture loop runs it.
TEST(SteadyStateAlloc, CutoffDiscardIsAllocFree) {
  constexpr std::uint32_t kFlows = 4096;
  constexpr std::size_t kRounds = 4;  // packets per flow per pass
  constexpr int kPasses = 8;
  constexpr std::size_t kBatch = 32;

  KernelConfig cfg;
  cfg.max_streams = kFlows * 2;
  cfg.defaults.cutoff_bytes = 64;
  ScapKernel k(cfg);
  auto drain = [&k] {
    while (!k.events().empty()) k.release_chunk(k.events().pop());
  };

  std::vector<std::uint8_t> payload(512, 0xab);
  const Timestamp t0(0);
  std::vector<FiveTuple> tuples(kFlows);
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    tuples[i] = {0x0a000000u + i, 0xc0a80001u, 40000, 80, kProtoTcp};
    const TcpSegmentSpec syn{.tuple = tuples[i], .seq = 0, .flags = kTcpSyn};
    const TcpSegmentSpec d0{.tuple = tuples[i], .seq = 1, .payload = payload};
    const TcpSegmentSpec d1{
        .tuple = tuples[i], .seq = 513, .payload = payload};
    k.handle_packet(make_tcp_packet(syn, t0), t0);
    k.handle_packet(make_tcp_packet(d0, t0), t0);
    k.handle_packet(make_tcp_packet(d1, t0), t0);  // now past the cutoff
  }
  drain();

  const TcpSegmentSpec steady{
      .tuple = tuples[0], .seq = 4096, .payload = payload};
  const Packet tmpl = make_tcp_packet(steady, t0);
  std::vector<Packet> pkts;
  pkts.reserve(kFlows * kRounds);
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (const FiveTuple& tup : tuples) {
      pkts.push_back(tmpl.with_flow(tup, 4096, t0));
    }
  }
  const std::span<const Packet> all(pkts);
  auto pass = [&] {
    for (std::size_t i = 0; i < all.size(); i += kBatch) {
      k.handle_batch(all.subspan(i, std::min(kBatch, all.size() - i)), t0);
      drain();
    }
  };
  pass();  // warm-up: grows any remaining lazy state

  const std::uint64_t discards_before = k.stats().verdicts[static_cast<
      std::size_t>(Verdict::kCutoffDiscard)];
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int p = 0; p < kPasses; ++p) pass();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t discards =
      k.stats().verdicts[static_cast<std::size_t>(Verdict::kCutoffDiscard)] -
      discards_before;

  EXPECT_EQ(discards, static_cast<std::uint64_t>(pkts.size()) * kPasses);
  EXPECT_EQ(after - before, 0u)
      << "batched cutoff discard allocated " << (after - before)
      << " time(s)";
}

// Chunk delivery end to end: streams that complete several 4 KiB chunks
// each with an overlap carry, close with FIN and are replaced by new ones
// through the record pool, ingested by handle_batch and drained by a
// release loop. Once the size-class free lists, the event ring, each
// builder's completed-chunk hand-off vector and the record pool cover the working
// set, delivery allocates nothing — with and without per-packet records.
void expect_chunk_delivery_alloc_free(bool need_pkts) {
  SCOPED_TRACE(need_pkts ? "need_pkts on" : "need_pkts off");
  constexpr std::uint32_t kStreams = 64;
  constexpr std::uint32_t kDataPkts = 12;  // 17520 B: 4 full chunks + a partial
  constexpr std::size_t kPayload = 1460;
  constexpr int kWarmPasses = 3;
  constexpr int kPasses = 8;
  constexpr std::size_t kBatch = 32;

  KernelConfig cfg;
  cfg.need_pkts = need_pkts;
  cfg.defaults.chunk_size = 4096;
  cfg.defaults.overlap_size = 64;
  ScapKernel k(cfg);
  std::uint64_t chunks = 0;
  std::uint64_t bytes = 0;
  auto drain = [&] {
    auto& q = k.events();
    while (!q.empty()) {
      Event ev = q.pop();
      if (ev.type == EventType::kData) {
        ++chunks;
        bytes += ev.chunk.data.size() - ev.chunk.overlap_len;
      }
      k.release_chunk(ev);
    }
  };

  // One pass: every stream's SYN, their data segments interleaved, then
  // every FIN — each stream lives for one pass and its tuple reopens in
  // the next through a recycled record.
  const std::vector<std::uint8_t> payload(kPayload, 0x5a);
  const Timestamp t0(0);
  std::vector<Packet> pkts;
  std::vector<FiveTuple> tuples(kStreams);
  for (std::uint32_t i = 0; i < kStreams; ++i) {
    tuples[i] = {0x0a000000u + i, 0xc0a80001u, 40000, 80, kProtoTcp};
    pkts.push_back(make_tcp_packet(
        {.tuple = tuples[i], .seq = 0, .flags = kTcpSyn}, t0));
  }
  for (std::uint32_t n = 0; n < kDataPkts; ++n) {
    for (const FiveTuple& tup : tuples) {
      pkts.push_back(make_tcp_packet(
          {.tuple = tup,
           .seq = 1 + n * static_cast<std::uint32_t>(kPayload),
           .payload = payload},
          t0));
    }
  }
  for (const FiveTuple& tup : tuples) {
    pkts.push_back(make_tcp_packet(
        {.tuple = tup,
         .seq = 1 + kDataPkts * static_cast<std::uint32_t>(kPayload),
         .flags = kTcpAck | kTcpFin},
        t0));
  }
  const std::span<const Packet> all(pkts);
  auto pass = [&] {
    for (std::size_t i = 0; i < all.size(); i += kBatch) {
      k.handle_batch(all.subspan(i, std::min(kBatch, all.size() - i)), t0);
      drain();
    }
  };
  for (int p = 0; p < kWarmPasses; ++p) pass();

  chunks = 0;
  bytes = 0;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int p = 0; p < kPasses; ++p) pass();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(chunks, std::uint64_t{kStreams} * 5 * kPasses);
  EXPECT_EQ(bytes, std::uint64_t{kStreams} * kDataPkts * kPayload * kPasses);
  EXPECT_EQ(k.allocator().used(), 0u);
  EXPECT_EQ(after - before, 0u)
      << "chunk delivery allocated " << (after - before) << " time(s)";
}

TEST(SteadyStateAlloc, ChunkDeliveryIsAllocFree) {
  expect_chunk_delivery_alloc_free(/*need_pkts=*/false);
  expect_chunk_delivery_alloc_free(/*need_pkts=*/true);
}

// Record churn on a warm pool: grow() reserves the full pool up front
// (that is what its hot-alloc waivers in record_pool.cpp claim), so
// acquire/release cycles within the slab's capacity never allocate.
TEST(SteadyStateAlloc, RecordPoolRecycleIsAllocFree) {
  constexpr std::size_t kSlab = 128;
  RecordPool pool(kSlab);

  // Warm: touch every record once so the slab and freelist exist.
  StreamRecord* warm[kSlab];
  for (std::size_t i = 0; i < kSlab; ++i) warm[i] = pool.acquire();
  for (std::size_t i = kSlab; i-- > 0;) pool.release(warm[i]);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 1000; ++round) {
    StreamRecord* a = pool.acquire();
    StreamRecord* b = pool.acquire();
    pool.release(a);
    pool.release(b);
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "warm record-pool churn allocated " << (after - before)
      << " time(s)";
}

// NIC classify on a warm, populated filter table: FDIR-dropped hits,
// flex misses that fall through to RSS, and tuples with no filter at all
// must all classify without touching the allocator.
TEST(SteadyStateAlloc, NicReceiveIsAllocFree) {
  constexpr std::uint16_t kFlows = 256;
  nic::Nic nic(4);
  std::vector<Packet> hits, misses;
  for (std::uint16_t p = 0; p < kFlows; ++p) {
    for (const auto& f :
         nic::make_cutoff_filters(tuple_for(p), Timestamp::from_sec(10))) {
      ASSERT_NE(nic.fdir().add(f), 0u);
    }
    TcpSegmentSpec spec;
    spec.tuple = tuple_for(p);
    spec.flags = kTcpAck;
    hits.push_back(make_tcp_packet(spec, Timestamp(0)));
    spec.flags = kTcpAck | kTcpFin;  // same tuple, flex miss
    misses.push_back(make_tcp_packet(spec, Timestamp(0)));
    spec.tuple = tuple_for(static_cast<std::uint16_t>(p + 1000));  // no filter
    misses.push_back(make_tcp_packet(spec, Timestamp(0)));
  }

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t dropped = 0, queued = 0;
  for (int round = 0; round < 200; ++round) {
    for (const Packet& pkt : hits) {
      const nic::RxResult r = nic.receive(pkt);
      if (r.disposition == nic::RxDisposition::kDroppedByFilter) ++dropped;
    }
    for (const Packet& pkt : misses) {
      if (nic.receive(pkt).disposition == nic::RxDisposition::kToQueue) {
        ++queued;
      }
    }
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(dropped, 200u * kFlows);
  EXPECT_EQ(queued, 200u * 2 * kFlows);
  EXPECT_EQ(after - before, 0u)
      << "warm NIC classify allocated " << (after - before) << " time(s)";
}

}  // namespace
}  // namespace scap::kernel
