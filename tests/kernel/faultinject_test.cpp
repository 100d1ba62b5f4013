// Fault-injection harness (DESIGN.md §8): schedules are deterministic, and
// every injected fault surfaces as exactly one counter increment in the
// component it hit — never a crash, never silent loss.
#include "faultinject/faultinject.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "faultinject/adversary.hpp"
#include "kernel/module.hpp"
#include "nic/nic.hpp"
#include "tests/kernel/test_helpers.hpp"

namespace scap::kernel {
namespace {

using faultinject::AdversaryConfig;
using faultinject::AdversaryGen;
using faultinject::FaultInjector;
using faultinject::FaultPoint;
using faultinject::FaultScope;
using faultinject::InjectionPlan;
using testing::SessionBuilder;

KernelConfig small_config() {
  KernelConfig cfg;
  cfg.memory_size = 1 << 20;
  cfg.defaults.chunk_size = 64;
  return cfg;
}

/// Drain all events so chunk accounting is released.
void drain(ScapKernel& k) {
  auto& q = k.events();
  while (!q.empty()) k.release_chunk(q.pop());
}

// --- injector mechanics ------------------------------------------------------

TEST(FaultInjector, EveryNFailsOnExactOrdinals) {
  InjectionPlan plan;
  plan.at(FaultPoint::kChunkAlloc).every_n = 3;
  FaultInjector inj(plan);
  std::vector<bool> decisions;
  for (int i = 0; i < 9; ++i) decisions.push_back(inj.roll(FaultPoint::kChunkAlloc));
  EXPECT_EQ(decisions, (std::vector<bool>{false, false, true, false, false,
                                          true, false, false, true}));
  EXPECT_EQ(inj.calls(FaultPoint::kChunkAlloc), 9u);
  EXPECT_EQ(inj.injected(FaultPoint::kChunkAlloc), 3u);
  // Other points are untouched.
  EXPECT_EQ(inj.calls(FaultPoint::kFdirAdd), 0u);
}

TEST(FaultInjector, ProbabilisticScheduleIsSeedDeterministic) {
  InjectionPlan plan = InjectionPlan::uniform(0xfeed, 0.25);
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 1000; ++i) {
    for (std::size_t p = 0; p < faultinject::kNumFaultPoints; ++p) {
      const auto point = static_cast<FaultPoint>(p);
      EXPECT_EQ(a.roll(point), b.roll(point)) << "call " << i << " point " << p;
    }
  }
  EXPECT_GT(a.injected_total(), 0u);
  EXPECT_EQ(a.injected_total(), b.injected_total());
}

TEST(FaultInjector, PointStreamsAreIndependent) {
  // Interleaving calls to another point must not perturb a point's own
  // decision sequence: decisions depend only on the per-point ordinal.
  InjectionPlan plan = InjectionPlan::uniform(42, 0.3);
  FaultInjector alone(plan);
  std::vector<bool> expect;
  for (int i = 0; i < 200; ++i) expect.push_back(alone.roll(FaultPoint::kChunkAlloc));

  FaultInjector mixed(plan);
  for (int i = 0; i < 200; ++i) {
    mixed.roll(FaultPoint::kFdirAdd);  // noise on a different point
    EXPECT_EQ(mixed.roll(FaultPoint::kChunkAlloc), expect[static_cast<std::size_t>(i)]);
  }
}

TEST(FaultScope, NestedScopesRestorePrevious) {
  EXPECT_EQ(faultinject::installed(), nullptr);
  InjectionPlan plan;
  FaultInjector outer(plan);
  {
    FaultScope a(outer);
    EXPECT_EQ(faultinject::installed(), &outer);
    FaultInjector inner(plan);
    {
      FaultScope b(inner);
      EXPECT_EQ(faultinject::installed(), &inner);
    }
    EXPECT_EQ(faultinject::installed(), &outer);
  }
  EXPECT_EQ(faultinject::installed(), nullptr);
  EXPECT_FALSE(faultinject::should_fail(FaultPoint::kChunkAlloc));
}

// --- fault -> counter mapping ------------------------------------------------

TEST(FaultMapping, RecordPoolFaultBecomesNoRecordDrop) {
  ScapKernel k(small_config());
  SessionBuilder s;
  Timestamp t(0);

  InjectionPlan plan;
  plan.at(FaultPoint::kRecordPoolAcquire).every_n = 1;  // every acquire fails
  FaultInjector inj(plan);
  FaultScope scope(inj);

  auto out = k.handle_packet(s.syn(t), t);
  EXPECT_EQ(out.verdict, Verdict::kNoRecordDrop);
  EXPECT_FALSE(out.created_stream);
  EXPECT_EQ(k.stats().pkts_norec_dropped, 1u);
  EXPECT_EQ(k.stats().streams_created, 0u);
  EXPECT_EQ(k.table().size(), 0u);
  EXPECT_EQ(inj.injected(FaultPoint::kRecordPoolAcquire), 1u);
  // The pool counts the same event from its side.
  EXPECT_EQ(k.table().pool_stats().acquire_failures, 1u);
}

TEST(FaultMapping, ChunkAllocFaultBecomesNoMemDrop) {
  ScapKernel k(small_config());
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.syn_ack(t), t);
  k.handle_packet(s.ack(t), t);

  InjectionPlan plan;
  plan.at(FaultPoint::kChunkAlloc).every_n = 1;
  FaultInjector inj(plan);
  {
    FaultScope scope(inj);
    auto out = k.handle_packet(s.data("payload", t), t);
    EXPECT_EQ(out.verdict, Verdict::kNoMemDrop);
  }
  EXPECT_EQ(k.stats().pkts_nomem_dropped, 1u);
  EXPECT_GE(k.allocator().failures(), 1u);
  // The stream survives the fault; the next packet (no injector) stores.
  auto out = k.handle_packet(s.data("payload2", t), t);
  EXPECT_EQ(out.verdict, Verdict::kStored);
  k.terminate_all(t);
  drain(k);
}

TEST(FaultMapping, SegmentStoreFaultBecomesReasmAllocFailure) {
  KernelConfig cfg = small_config();
  cfg.defaults.mode = ReassemblyMode::kTcpStrict;
  ScapKernel k(cfg);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.syn_ack(t), t);
  k.handle_packet(s.ack(t), t);

  InjectionPlan plan;
  plan.at(FaultPoint::kSegmentStoreInsert).every_n = 1;
  FaultInjector inj(plan);
  {
    FaultScope scope(inj);
    // Out-of-order segment: strict mode must buffer it -> injected failure.
    auto out = k.handle_packet(
        s.data_at(s.client_seq() + 100, "future data", t), t);
    EXPECT_EQ(out.verdict, Verdict::kNoMemDrop);
  }
  EXPECT_EQ(k.stats().reasm_alloc_failures, 1u);
  EXPECT_EQ(k.stats().pkts_nomem_dropped, 1u);
  EXPECT_EQ(inj.injected(FaultPoint::kSegmentStoreInsert), 1u);
  // In-order data afterwards still flows.
  auto out = k.handle_packet(s.data("now", t), t);
  EXPECT_EQ(out.verdict, Verdict::kStored);
  k.terminate_all(t);
  drain(k);
}

TEST(FaultMapping, FdirAddFaultBecomesInstallFailure) {
  nic::Nic nic(1);
  KernelConfig cfg = small_config();
  cfg.use_fdir = true;
  cfg.defaults.cutoff_bytes = 4;  // trip the cutoff on the first segment
  ScapKernel k(cfg, &nic);
  SessionBuilder s;
  Timestamp t(0);
  k.handle_packet(s.syn(t), t);
  k.handle_packet(s.syn_ack(t), t);
  k.handle_packet(s.ack(t), t);

  InjectionPlan plan;
  plan.at(FaultPoint::kFdirAdd).every_n = 1;
  FaultInjector inj(plan);
  {
    FaultScope scope(inj);
    k.handle_packet(s.data("well beyond the four-byte cutoff", t), t);
  }
  EXPECT_GE(inj.injected(FaultPoint::kFdirAdd), 1u);
  // Every injected add surfaced in both the NIC's and the kernel's counter,
  // and nothing was left half-installed.
  EXPECT_EQ(nic.fdir().add_failures(), inj.injected(FaultPoint::kFdirAdd));
  EXPECT_EQ(k.stats().fdir_install_failures,
            inj.injected(FaultPoint::kFdirAdd));
  EXPECT_EQ(nic.fdir().size(), 0u);
  k.terminate_all(t);
  drain(k);
}

// --- whole-run determinism ---------------------------------------------------

/// One full adversarial run: seeded traffic, seeded faults, final stats.
KernelStats adversarial_run(std::uint64_t seed) {
  KernelConfig cfg;
  cfg.memory_size = 256 * 1024;
  cfg.defaults.chunk_size = 1024;
  cfg.defaults.mode = ReassemblyMode::kTcpStrict;
  cfg.defragment_ip = true;
  cfg.max_streams = 64;
  ScapKernel k(cfg);

  InjectionPlan plan = InjectionPlan::uniform(seed, 0.02);
  FaultInjector inj(plan);
  FaultScope scope(inj);

  AdversaryConfig acfg;
  acfg.seed = seed;
  acfg.packets = 5000;
  AdversaryGen gen(acfg);
  for (std::uint64_t i = 0; i < acfg.packets; ++i) {
    const Packet pkt = gen.next();
    k.handle_packet(pkt, pkt.timestamp());
    drain(k);
  }
  k.terminate_all(Timestamp::from_sec(60));
  drain(k);
  return k.stats();
}

TEST(FaultDeterminism, IdenticalSeedsProduceIdenticalKernelStats) {
  const KernelStats a = adversarial_run(0xc0ffee);
  const KernelStats b = adversarial_run(0xc0ffee);
  // KernelStats is all 64-bit counters: byte comparison is exact.
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(KernelStats)), 0);

  // A different seed must actually change the run (the schedule is live).
  const KernelStats c = adversarial_run(0xbead);
  EXPECT_NE(std::memcmp(&a, &c, sizeof(KernelStats)), 0);
}

TEST(FaultDeterminism, TaxonomySumsToInvalidUnderFaults) {
  const KernelStats s = adversarial_run(0x5eed);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kNumDecodeErrors; ++i) sum += s.parse_errors[i];
  EXPECT_EQ(sum, s.pkts_invalid);
  EXPECT_GT(s.pkts_invalid, 0u);         // the adversary really sent garbage
  EXPECT_GT(s.pkts_norec_dropped, 0u);   // record faults really landed
}

}  // namespace
}  // namespace scap::kernel
