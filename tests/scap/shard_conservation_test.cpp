// Shard-aggregation determinism and conservation (DESIGN.md §12).
//
// The sharded datapath must be *accounting-transparent*: because symmetric
// RSS gives every flow to exactly one shard and maintenance ticks ride the
// ingest rings in-band, the shard-summed KernelStats at any maintenance
// tick is a pure function of the input trace — independent of how many
// workers processed it. The first suite asserts that literally: seeded
// adversarial workloads replayed at 1, 2 and 4 workers produce bit-for-bit
// identical aggregated snapshots at every tick (pool-geometry fields are
// normalized to zero first; slab growth is allocation-pattern dependent).
//
// The second suite gives up bit-for-bit (tiny memory, tiny stream budget,
// FDIR commands draining through the MPSC queue) and instead asserts the
// conservation laws on the shard aggregate at every tick for 1-8 workers —
// the property chaos_run --check-invariants relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/mutex.hpp"
#include "faultinject/adversary.hpp"
#include "kernel/shard.hpp"
#include "kernel/stats_determinism.hpp"
#include "nic/nic.hpp"

namespace scap {
namespace {

std::vector<Packet> adversary_packets(std::uint64_t seed, std::uint64_t n) {
  faultinject::AdversaryConfig cfg;
  cfg.seed = seed;
  cfg.packets = n;
  return faultinject::AdversaryGen(cfg).generate();
}

/// Replay `pkts` through a KernelShards with `workers` shards, pushing
/// in-band maintenance ticks on the config's expiry_interval grid
/// (anchored at the first packet, markers pushed before any packet at or
/// past the boundary — the same discipline Capture uses). After every
/// tick the rings are flushed and `on_tick` runs, then the normalized
/// aggregate is snapshotted; two more snapshots follow the final flush
/// and stop(). When `with_fdir_nic` is set, queued FDIR commands drain
/// into a producer-owned NIC at each tick.
template <typename OnTick>
std::vector<kernel::KernelStats> replay_sharded(
    const std::vector<Packet>& pkts, const kernel::KernelConfig& cfg,
    int workers, bool with_fdir_nic, OnTick on_tick) {
  kernel::KernelShards shards(cfg, workers);
  base::SerialGuard prod(shards.producer());
  std::optional<nic::Nic> nic;
  if (with_fdir_nic) nic.emplace(workers);
  shards.start({});

  std::vector<kernel::KernelStats> snaps;
  const Duration tick = cfg.expiry_interval;
  bool anchored = false;
  Timestamp next{};
  Timestamp last{};
  for (const Packet& p : pkts) {
    if (!anchored) {
      next = p.timestamp() + tick;
      anchored = true;
    }
    while (p.timestamp() >= next) {
      shards.tick_all(next);
      shards.flush();
      if (nic.has_value()) shards.service_fdir(*nic, next);
      on_tick(shards);
      snaps.push_back(kernel::normalized(shards.stats()));
      next = next + tick;
    }
    shards.submit(p);
    last = p.timestamp();
  }
  shards.flush();
  on_tick(shards);
  snaps.push_back(kernel::normalized(shards.stats()));
  shards.stop(last);
  snaps.push_back(kernel::normalized(shards.stats()));
  return snaps;
}

// --- bit-for-bit shard-count independence ------------------------------------

// Ample memory, unlimited streams, no defrag, no FDIR, no flush timeouts:
// every nondeterministic resource edge is out of the picture, so the
// aggregate must replay exactly.
kernel::KernelConfig exact_config() {
  kernel::KernelConfig cfg;
  cfg.memory_size = 256ull << 20;
  cfg.max_streams = 0;
  cfg.defaults.cutoff_bytes = 4096;  // deterministic per-flow discard path
  // 6000 adversary packets span ~12ms of virtual time; a 2ms grid with a
  // 4ms idle timeout makes streams expire *mid-replay*, so the snapshots
  // actually exercise tick-vs-packet ordering, not just the final total.
  cfg.expiry_interval = Duration::from_msec(2);
  cfg.defaults.inactivity_timeout = Duration::from_msec(4);
  return cfg;
}

class ShardConservationExact
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardConservationExact, AggregateMatchesSingleWorkerAtEveryTick) {
  const std::vector<Packet> pkts = adversary_packets(GetParam(), 6000);
  const kernel::KernelConfig cfg = exact_config();
  const auto nop = [](kernel::KernelShards&) {};

  const std::vector<kernel::KernelStats> ref =
      replay_sharded(pkts, cfg, /*workers=*/1, /*with_fdir_nic=*/false, nop);
  ASSERT_GE(ref.size(), 4u) << "tick grid produced too few snapshots";
  EXPECT_GT(ref.back().streams_terminated, 0u);

  for (int workers : {2, 4}) {
    const std::vector<kernel::KernelStats> got = replay_sharded(
        pkts, cfg, workers, /*with_fdir_nic=*/false, nop);
    ASSERT_EQ(got.size(), ref.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(got[i] == ref[i])
          << "workers=" << workers << " diverged at snapshot " << i << "/"
          << ref.size() << " (pkts_seen " << got[i].pkts_seen << " vs "
          << ref[i].pkts_seen << ", streams_terminated "
          << got[i].streams_terminated << " vs " << ref[i].streams_terminated
          << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeededWorkloads, ShardConservationExact,
                         ::testing::Values(11u, 21u, 31u));

// --- conservation under hostility --------------------------------------------

// Starved config: conservation (not bit-for-bit) must survive nomem drops,
// stream-budget evictions, checksum rejects, defrag and the FDIR command
// queue, at every tick, for every worker count.
TEST(ShardConservationHostile, InvariantsHoldAtEveryTickForAllWorkerCounts) {
  const std::vector<Packet> pkts = adversary_packets(/*seed=*/77, 8000);
  kernel::KernelConfig cfg;
  cfg.memory_size = 256 * 1024;
  cfg.max_streams = 512;
  cfg.defaults.cutoff_bytes = 2048;
  cfg.verify_checksums = true;
  cfg.defragment_ip = true;
  cfg.use_fdir = true;
  cfg.expiry_interval = Duration::from_msec(2);
  cfg.defaults.inactivity_timeout = Duration::from_msec(4);

  for (int workers : {1, 2, 4, 8}) {
    int ticks = 0;
    const auto check = [&](kernel::KernelShards& shards) {
      ++ticks;
      EXPECT_EQ(shards.check_invariants(), "")
          << "workers=" << workers << " tick=" << ticks;
    };
    const std::vector<kernel::KernelStats> snaps =
        replay_sharded(pkts, cfg, workers, /*with_fdir_nic=*/true, check);
    EXPECT_GT(ticks, 3) << "workers=" << workers;
    const kernel::KernelStats& fin = snaps.back();
    EXPECT_EQ(fin.check_conservation(), "") << "workers=" << workers;
    EXPECT_GT(fin.pkts_seen, 0u);
    EXPECT_GT(fin.streams_evicted + fin.pkts_nomem_dropped, 0u)
        << "hostile config failed to starve anything; workers=" << workers;
  }
}

}  // namespace
}  // namespace scap
