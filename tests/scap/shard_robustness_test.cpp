// Overload- and failure-robustness of the sharded datapath (DESIGN.md §13):
// the worker-stall watchdog (fatal and degrade policies), the PPL-mirroring
// watermark admission ladder, bounded stop(), the FDIR applier's counting
// and §5.5 re-install with workers, and a full ring with no worker to
// drain it. Everything here drives KernelShards directly with explicit
// shard targeting and a manual tick grid, so every verdict is
// deterministic.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "base/mutex.hpp"
#include "faultinject/faultinject.hpp"
#include "kernel/shard.hpp"
#include "nic/nic.hpp"
#include "packet/craft.hpp"

namespace scap::kernel {
namespace {

using faultinject::FaultInjector;
using faultinject::FaultPoint;
using faultinject::FaultScope;
using faultinject::InjectionPlan;

Packet packet_for(std::uint16_t src_port, Timestamp ts,
                  std::uint32_t dst_ip = 0x0a000001) {
  TcpSegmentSpec spec;
  spec.tuple = {0xc0a80001, dst_ip, src_port, 80, kProtoTcp};
  return make_tcp_packet(spec, ts);
}

/// Injection plan that parks exactly one shard's worker at thread entry
/// (kWorkerStall is consulted once per worker, keyed by shard).
InjectionPlan park_shard(std::uint64_t shard) {
  InjectionPlan plan;
  plan.seed = 1;
  plan.at(FaultPoint::kWorkerStall).every_n = 1;
  plan.at(FaultPoint::kWorkerStall).only_key =
      static_cast<std::int64_t>(shard);
  return plan;
}

// --- watchdog: degrade policy ------------------------------------------------

// One of four workers is parked. The watchdog must declare the stall within
// its simulated-time deadline, degrade only that shard (its traffic lands in
// ring_stall_shed_*), keep the other three processing, hold every
// conservation law at every maintenance tick, and close the in-flight
// accounting exactly at stop().
TEST(ShardWatchdog, DegradeIsolatesStalledShardOthersKeepProcessing) {
  KernelConfig cfg;
  cfg.memory_size = 8 << 20;

  KernelShards::Options opts;
  opts.ring_capacity = 64;
  opts.stall_timeout = Duration::from_msec(5);
  opts.stall_policy = StallPolicy::kDegrade;
  opts.stall_spin_limit = 512;  // the parked worker never progresses anyway

  KernelShards shards(cfg, /*num_shards=*/4, opts);
  FaultInjector injector(park_shard(1));
  // Installed before start(): workers consult kWorkerStall at thread entry.
  FaultScope scope(injector);
  base::SerialGuard prod(shards.producer());
  shards.start({});

  const Timestamp t0 = Timestamp(1'000'000'000);
  shards.tick_all(t0);  // seeds every shard's heartbeat baseline
  EXPECT_EQ(shards.check_invariants(), "");

  // Only the parked shard may look stalled. A live worker that has not
  // been scheduled yet would too, once the deadline has passed and the
  // short grace runs out, so before every tick past the deadline (and
  // before flush(), which grants the same grace) the live shards retire
  // everything they were given. The wait is capped: a worker that missed
  // its wakeup is woken by the grace itself.
  const auto settle_live_shards = [&] {
    const auto cap =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (int shard : {0, 2, 3}) {
      while (shards.backlog(shard) != 0 &&
             std::chrono::steady_clock::now() < cap) {
        std::this_thread::yield();
      }
    }
  };

  // Round 1: 40 packets per shard, all inside the watchdog deadline.
  Timestamp ts = t0;
  for (int i = 0; i < 40; ++i) {
    ts = t0 + Duration::from_usec(10 * (i + 1));
    for (int shard = 0; shard < 4; ++shard) {
      shards.submit_to(shard, packet_for(
          static_cast<std::uint16_t>(2000 + i), ts,
          0x0a000001 + static_cast<std::uint32_t>(shard)));
    }
  }

  // Deadline not yet reached: no stall may be declared.
  shards.tick_all(t0 + Duration::from_msec(2));
  EXPECT_EQ(shards.check_invariants(), "");
  EXPECT_EQ(shards.stats().worker_stalls, 0u);
  EXPECT_FALSE(shards.degraded(1));

  // Past the deadline with a flat heartbeat and outstanding items: the
  // bounded grace spin cannot observe progress (the worker is parked), so
  // shard 1 must be degraded — and only shard 1.
  settle_live_shards();
  shards.tick_all(t0 + Duration::from_msec(8));
  EXPECT_EQ(shards.check_invariants(), "");
  EXPECT_TRUE(shards.degraded(1));
  EXPECT_FALSE(shards.degraded(0));
  EXPECT_FALSE(shards.degraded(2));
  EXPECT_FALSE(shards.degraded(3));
  EXPECT_EQ(shards.stats().worker_stalls, 1u);

  // Round 2: the degraded shard's traffic is shed (counted as stall shed);
  // the other three shards keep capturing.
  for (int i = 0; i < 40; ++i) {
    ts = t0 + Duration::from_msec(8) + Duration::from_usec(10 * (i + 1));
    for (int shard = 0; shard < 4; ++shard) {
      shards.submit_to(shard, packet_for(
          static_cast<std::uint16_t>(3000 + i), ts,
          0x0a000001 + static_cast<std::uint32_t>(shard)));
    }
  }
  settle_live_shards();
  shards.tick_all(t0 + Duration::from_msec(12));
  EXPECT_EQ(shards.check_invariants(), "");
  settle_live_shards();
  shards.flush();  // live shards drain; the degraded one is skipped

  const KernelStats mid = shards.stats();
  EXPECT_EQ(mid.ring_stall_shed_pkts, 40u);
  EXPECT_EQ(mid.ring_shed_pkts, 40u);  // every shed here is a stall shed
  EXPECT_GT(mid.ring_stall_shed_bytes, 0u);
  for (int shard : {0, 2, 3}) {
    EXPECT_EQ(shards.shard_stats(shard).pkts_seen, 80u) << "shard " << shard;
  }
  // The parked worker consumed nothing: its kernel saw no packets yet.
  EXPECT_EQ(shards.shard_stats(1).pkts_seen, 0u);

  // Bounded stop() despite the dead worker: the join is interruptible and
  // the degraded shard's ring residue (round 1) is drained inline, so the
  // final accounting includes those 40 packets.
  shards.stop(ts);
  EXPECT_EQ(shards.check_invariants(), "");
  const KernelStats fin = shards.stats();
  EXPECT_EQ(fin.pkts_seen, 3 * 80u + 40u);
  EXPECT_EQ(fin.ring_stall_shed_pkts, 40u);
  EXPECT_EQ(fin.worker_stalls, 1u);
}

// --- watchdog: fatal policy --------------------------------------------------

#if defined(SCAP_ENABLE_INVARIANTS)
// Under StallPolicy::kFatal the watchdog must abort within the deadline
// (simulated deadline + bounded real-time grace) instead of hanging the
// producer. Death test: the whole scenario runs in the forked child.
TEST(ShardWatchdogDeathTest, FatalPolicyAbortsWithinDeadline) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        KernelConfig cfg;
        cfg.memory_size = 8 << 20;
        KernelShards::Options opts;
        opts.ring_capacity = 64;
        opts.stall_timeout = Duration::from_msec(5);
        opts.stall_policy = StallPolicy::kFatal;
        opts.stall_spin_limit = 512;
        KernelShards shards(cfg, 4, opts);
        FaultInjector injector(park_shard(1));
        FaultScope scope(injector);
        base::SerialGuard prod(shards.producer());
        shards.start({});
        const Timestamp t0 = Timestamp(1'000'000'000);
        shards.tick_all(t0);
        for (int i = 0; i < 8; ++i) {
          for (int shard = 0; shard < 4; ++shard) {
            shards.submit_to(
                shard, packet_for(static_cast<std::uint16_t>(2000 + i),
                                  t0 + Duration::from_usec(10 * (i + 1))));
          }
        }
        shards.tick_all(t0 + Duration::from_msec(8));
      },
      "stalled past the watchdog deadline");
}
#endif  // SCAP_ENABLE_INVARIANTS

// --- watermark admission ladder ----------------------------------------------

// Full-ring shed ordering: with the ladder over [low, high) mirroring the
// PPL watermarks, lower-priority packets must be shed strictly before
// higher-priority ones, hysteresis must shed everything once high is
// crossed, and a drain below low must re-open admission. No workers run:
// occupancy is then exact and every verdict is a pure function of the push
// sequence.
TEST(ShardAdmission, LadderShedsLowestPriorityFirstWithHysteresis) {
  KernelConfig cfg;
  cfg.memory_size = 8 << 20;
  cfg.ppl.priority_levels = 4;
  // Priority by client port: 1000+p -> PPL priority p (first match wins).
  for (int p = 0; p < 4; ++p) {
    PriorityClass cls;
    cls.filter = BpfProgram::compile("src port " + std::to_string(1000 + p));
    cls.priority = p;
    cfg.priority_classes.push_back(cls);
  }

  KernelShards::Options opts;
  opts.ring_capacity = 16;
  opts.ring_high_watermark = 8;
  opts.ring_low_watermark = 4;
  KernelShards shards(cfg, /*num_shards=*/1, opts);
  base::SerialGuard prod(shards.producer());

  const Timestamp t0 = Timestamp(1'000'000'000);
  std::int64_t n = 0;
  const auto push = [&](int prio) {
    shards.submit_to(0, packet_for(static_cast<std::uint16_t>(1000 + prio),
                                   t0 + Duration::from_usec(++n)));
  };
  const auto shed_count = [&] { return shards.stats().ring_shed_pkts; };

  // Ladder thresholds: wm(p) = low + (p+1)*(high-low)/levels = 5,6,7,8.
  // Below low (occ < 4) everything is admitted regardless of priority.
  for (int i = 0; i < 4; ++i) push(3);
  EXPECT_EQ(shed_count(), 0u);
  push(3);  // occ=4 < wm(3)=8: admitted
  EXPECT_EQ(shed_count(), 0u);
  push(0);  // occ=5 >= wm(0)=5: the lowest priority is shed first
  EXPECT_EQ(shed_count(), 1u);
  push(1);  // occ=5 < wm(1)=6: admitted
  EXPECT_EQ(shed_count(), 1u);
  push(1);  // occ=6 >= wm(1): shed
  EXPECT_EQ(shed_count(), 2u);
  push(2);  // occ=6 < wm(2)=7: admitted
  EXPECT_EQ(shed_count(), 2u);
  push(2);  // occ=7 >= wm(2): shed
  EXPECT_EQ(shed_count(), 3u);
  push(3);  // occ=7 < wm(3)=8: the highest priority survives to high itself
  EXPECT_EQ(shed_count(), 3u);
  push(3);  // occ=8 >= high: hysteresis arms, everything sheds
  EXPECT_EQ(shed_count(), 4u);
  push(3);  // still shedding (occ stuck above low)
  EXPECT_EQ(shed_count(), 5u);

  // Shed accounting is exact: all ten frames are the same size.
  const KernelStats mid = shards.stats();
  const std::uint64_t frame = mid.ring_shed_bytes / mid.ring_shed_pkts;
  EXPECT_EQ(mid.ring_shed_bytes, 5u * frame);
  EXPECT_EQ(mid.ring_stall_shed_pkts, 0u);  // no stall was involved

  // Drain to empty (inline: no workers), dropping occupancy through low:
  // hysteresis clears and the lowest priority is admitted again.
  shards.flush();
  push(0);
  EXPECT_EQ(shed_count(), 5u);

  shards.flush();
  EXPECT_EQ(shards.check_invariants(), "");
  shards.stop(t0 + Duration::from_msec(1));
  EXPECT_EQ(shards.check_invariants(), "");
  const KernelStats fin = shards.stats();
  EXPECT_EQ(fin.pkts_seen, 9u);  // 14 pushes, 5 shed
  EXPECT_EQ(fin.ring_shed_pkts, 5u);
}

// --- FDIR: the applier's counting rule, re-install at every worker count ----

// fdir_installs must count hardware acceptance, not enqueue: each filter
// the NIC rejects lands in fdir_install_failures, removals (explicit and
// expiry) count filters actually removed, and the removal-conservation law
// (fdir_removals <= 2*(installs + reinstalls)) holds with exact equality in
// the all-removed case.
TEST(ShardFdir, AppliedCountsMatchHardwareOutcomes) {
  KernelConfig cfg;
  cfg.memory_size = 8 << 20;
  cfg.use_fdir = true;  // gives each shard kernel its FDIR outbox

  const Timestamp t0 = Timestamp(1'000'000'000);
  const FiveTuple a{0xc0a80001, 0x0a000001, 1111, 80, kProtoTcp};
  const FiveTuple b{0xc0a80001, 0x0a000001, 2222, 80, kProtoTcp};

  {
    KernelShards shards(cfg, 1);
    base::SerialGuard prod(shards.producer());
    ASSERT_NE(shards.kernel(0).fdir_outbox(), nullptr);

    FdirCommand install;
    install.kind = FdirCommand::Kind::kInstallCutoff;
    install.tuple = a;
    install.expires = t0 + Duration::from_sec(10);
    ASSERT_TRUE(shards.kernel(0).fdir_outbox()->try_push(install));

    FdirCommand reinstall = install;
    reinstall.tuple = b;
    reinstall.reinstall = true;
    ASSERT_TRUE(shards.kernel(0).fdir_outbox()->try_push(reinstall));

    nic::Nic nic(1);
    shards.service_fdir(nic, t0);
    KernelStats s = shards.stats();
    EXPECT_EQ(s.fdir_installs, 1u);
    EXPECT_EQ(s.fdir_reinstalls, 1u);
    EXPECT_EQ(s.fdir_removals, 0u);
    EXPECT_EQ(s.fdir_install_failures, 0u);

    // Explicit removal takes out both flag-variant filters for the tuple.
    FdirCommand remove;
    remove.kind = FdirCommand::Kind::kRemove;
    remove.tuple = a;
    remove.also_reversed = true;
    ASSERT_TRUE(shards.kernel(0).fdir_outbox()->try_push(remove));
    shards.service_fdir(nic, t0 + Duration::from_sec(1));
    EXPECT_EQ(shards.stats().fdir_removals, 2u);

    // Hardware expiry is serviced here too; tuple b's pair times out.
    shards.service_fdir(nic, t0 + Duration::from_sec(20));
    s = shards.stats();
    EXPECT_EQ(s.fdir_removals, 4u);
    // Law 7 at exact equality: 4 == 2 * (1 install + 1 reinstall).
    EXPECT_EQ(s.check_conservation(), "");
    EXPECT_EQ(shards.check_invariants(), "");
    shards.stop(t0 + Duration::from_sec(21));
  }

  // Rejection path: a zero-capacity FDIR table refuses both filters, so
  // the command counts no install and one failure per rejected filter.
  {
    KernelShards shards(cfg, 1);
    base::SerialGuard prod(shards.producer());
    FdirCommand install;
    install.kind = FdirCommand::Kind::kInstallCutoff;
    install.tuple = a;
    install.expires = t0 + Duration::from_sec(10);
    ASSERT_TRUE(shards.kernel(0).fdir_outbox()->try_push(install));

    nic::Nic rejecting(1, symmetric_rss_key(), /*fdir_capacity=*/0);
    shards.service_fdir(rejecting, t0);
    const KernelStats s = shards.stats();
    EXPECT_EQ(s.fdir_installs, 0u);
    EXPECT_EQ(s.fdir_install_failures, 2u);
    EXPECT_EQ(rejecting.fdir().add_failures(), 2u);
    EXPECT_EQ(s.check_conservation(), "");
    shards.stop(t0 + Duration::from_sec(1));
  }
}

// §5.5 re-install with and without workers. The kernel decides it from the
// filter expiry it asked for, so a shard kernel that never touches the NIC
// re-installs like the inline one. Driven the way Capture::advance_ticks
// drives the shards: tick_all, then service_fdir, with flush() between.
TEST(ShardFdir, ReinstallAfterExpiryAtEveryWorkerCount) {
  KernelConfig cfg;
  cfg.memory_size = 8 << 20;
  cfg.use_fdir = true;
  cfg.defaults.cutoff_bytes = 4;
  cfg.defaults.inactivity_timeout = Duration::from_sec(1000);
  const Timestamp t0 = Timestamp(1'000'000'000);
  const Timestamp t1 = t0 + Duration::from_sec(11);  // past the 10 s filters
  const FiveTuple tuple{0xc0a80001, 0x0a000001, 3333, 80, kProtoTcp};
  const std::vector<std::uint8_t> payload(16, 'x');
  auto segment = [&](const FiveTuple& t, int flags, std::uint32_t seq,
                     std::size_t len, Timestamp ts) {
    TcpSegmentSpec spec;
    spec.tuple = t;
    spec.seq = seq;
    spec.flags = static_cast<std::uint8_t>(flags);
    spec.payload = std::span<const std::uint8_t>(payload).first(len);
    return make_tcp_packet(spec, ts);
  };

  auto run = [&](int workers) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    nic::Nic nic(1);
    auto shards = workers == 0
                      ? std::make_unique<KernelShards>(cfg, nic, nullptr)
                      : std::make_unique<KernelShards>(cfg, workers);
    base::SerialGuard prod(shards->producer());
    shards->start({});
    auto tick = [&](Timestamp now) {
      shards->tick_all(now);
      shards->flush();
      shards->service_fdir(nic, now);
    };
    auto inject = [&](const Packet& pkt) {
      EXPECT_EQ(nic.receive(pkt).disposition, nic::RxDisposition::kToQueue);
      shards->submit(pkt);
      shards->flush();
      shards->service_fdir(nic, pkt.timestamp());
    };
    tick(t0);
    inject(segment(tuple, kTcpSyn, 1000, 0, t0));
    inject(segment(tuple.reversed(), kTcpSyn | kTcpAck, 5000, 0, t0));
    inject(segment(tuple, kTcpAck, 1001, 0, t0));
    inject(segment(tuple, kTcpAck | kTcpPsh, 1001, 16, t0));  // past 4 B
    EXPECT_EQ(nic.fdir().size(), 2u);

    tick(t1);  // the filters time out; the stream lives on
    EXPECT_EQ(nic.fdir().size(), 0u);
    inject(segment(tuple, kTcpAck | kTcpPsh, 1017, 16, t1));
    const KernelStats st = shards->stats();
    EXPECT_EQ(st.fdir_installs, 1u);
    EXPECT_EQ(st.fdir_reinstalls, 1u);
    EXPECT_EQ(nic.fdir().size(), 2u);

    shards->stop(t1);
    shards->service_fdir(nic, t1);
    EXPECT_EQ(nic.fdir().size(), 0u);
    EXPECT_EQ(shards->check_invariants(), "");
    return shards->stats();
  };
  const KernelStats inline_stats = run(0);
  const KernelStats worker_stats = run(1);
  EXPECT_EQ(inline_stats.fdir_installs, worker_stats.fdir_installs);
  EXPECT_EQ(inline_stats.fdir_reinstalls, worker_stats.fdir_reinstalls);
  EXPECT_EQ(inline_stats.fdir_removals, worker_stats.fdir_removals);
  EXPECT_EQ(inline_stats.fdir_install_failures,
            worker_stats.fdir_install_failures);
  EXPECT_EQ(worker_stats.fdir_removals, 4u);
}

// --- full ring without a worker ---------------------------------------------

// Before start() (and after stop()) no worker consumes the rings, so the
// producer is the only consumer there is: a full ring must be drained on
// the submitting thread, not waited out forever.
TEST(ShardRing, FullRingWithoutWorkerDrainsOnSubmit) {
  KernelConfig cfg;
  cfg.memory_size = 8 << 20;
  KernelShards::Options opts;
  opts.ring_capacity = 2;

  KernelShards shards(cfg, /*num_shards=*/1, opts);
  base::SerialGuard prod(shards.producer());
  const Timestamp t0 = Timestamp(1'000'000'000);
  for (std::uint16_t i = 0; i < 5; ++i) {
    shards.submit(packet_for(static_cast<std::uint16_t>(1000 + i),
                             t0 + Duration::from_usec(i)));
  }
  EXPECT_EQ(shards.check_invariants(), "");
  shards.start({});
  shards.stop(t0 + Duration::from_sec(1));
  const KernelStats s = shards.stats();
  EXPECT_EQ(s.pkts_seen, 5u);
  EXPECT_EQ(shards.check_invariants(), "");
}

}  // namespace
}  // namespace scap::kernel
