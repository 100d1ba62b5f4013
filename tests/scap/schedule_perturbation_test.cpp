// Thread-schedule perturbation determinism (DESIGN.md §15).
//
// The static taint gate (tools/scap_taint.py) proves no scheduling-
// dependent value reaches an observable output; this is its dynamic twin.
// A seeded adversarial workload replays through the 4-worker sharded
// datapath twice: once undisturbed, once with FaultPoint::kWorkerDelay
// napping workers *after* they pop a batch — which shifts producer-side
// ring occupancy, wakeup timing and every batch boundary. Everything the
// replay/repro suite compares must not move:
//
//   - the normalized shard-aggregate KernelStats at every maintenance
//     tick (normalization zeroes exactly the fields the determinism
//     registry classifies kShardGeometry / kSchedulingDependent — the
//     same derivation shard_conservation_test uses), and
//   - the per-shard golden trace timelines, byte for byte (event content
//     is virtual-time driven; only the scheduling-dependent histogram
//     block is excluded, per its registry class), and
//   - the bytes delivered: a digest of every chunk the drain hook reads
//     before releasing it, and their count.
//
// The config keeps rings ample and watermarks off so no shed/stall events
// exist to begin with — their keyed reproducibility under pressure is
// chaos_smoke_mc's job; this test pins the stronger bit-identical claim
// on the undisturbed-admission path.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "base/mutex.hpp"
#include "faultinject/adversary.hpp"
#include "faultinject/faultinject.hpp"
#include "kernel/shard.hpp"
#include "kernel/stats_determinism.hpp"
#include "tests/scap/delivered_digest.hpp"
#include "trace/export.hpp"

namespace scap {
namespace {

struct Replay {
  std::vector<kernel::KernelStats> snaps;  // normalized, one per tick + final
  std::vector<std::string> traces;         // per-shard golden text timelines
  std::uint64_t delivered_digest = 0;      // DeliveredDigest of every chunk
  std::uint64_t delivered_bytes = 0;
};

constexpr int kWorkers = 4;

/// Replay the workload through a traced 4-worker KernelShards with the
/// same in-band maintenance-tick discipline shard_conservation_test uses,
/// snapshotting the normalized aggregate at every tick and serializing
/// each shard's trace timeline after stop().
Replay replay(const std::vector<Packet>& pkts,
              const kernel::KernelConfig& cfg) {
  kernel::KernelShards::Options opts;
  // Ample ring so a napping worker backs occupancy up instead of ever
  // shedding; perturbation must change *pressure*, not admission verdicts.
  opts.ring_capacity = 1 << 15;
  opts.trace = trace::TraceConfig{/*ring_capacity=*/1 << 16, /*cores=*/1};
  kernel::KernelShards shards(cfg, kWorkers, opts);
  base::SerialGuard prod(shards.producer());
  // The drain hook reads every delivered chunk before releasing it, so the
  // bytes themselves are compared, not only the counters that describe
  // them.
  DeliveredDigest delivered;
  shards.start([&delivered](int, kernel::ScapKernel& k) {
    base::SerialGuard serial(k.serial());
    auto& q = k.events(0);
    while (!q.empty()) {
      kernel::Event ev = q.pop();
      if (ev.type == kernel::EventType::kData) {
        delivered.on_data(ev.stream.tuple,
                          std::span<const std::uint8_t>(ev.chunk.data)
                              .subspan(ev.chunk.overlap_len));
      } else if (ev.type == kernel::EventType::kTerminated) {
        delivered.on_terminated(ev.stream.tuple);
      }
      k.release_chunk(ev);
    }
  });

  Replay out;
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
      out.snaps.push_back(kernel::normalized(shards.stats()));
      next = next + tick;
    }
    shards.submit(p);
    last = p.timestamp();
  }
  shards.flush();
  out.snaps.push_back(kernel::normalized(shards.stats()));
  shards.stop(last);
  out.snaps.push_back(kernel::normalized(shards.stats()));
  std::tie(out.delivered_digest, out.delivered_bytes) = delivered.result();

  // Quiescent after stop(): serialize each shard's timeline. The
  // histogram block is deliberately not serialized — queue_occupancy is
  // registry-classified kSchedulingDependent.
  for (int i = 0; i < shards.num_shards(); ++i) {
    const trace::Tracer* t = shards.tracer(i);
    EXPECT_NE(t, nullptr);
    if (t == nullptr) continue;
    EXPECT_EQ(t->dropped(), 0u) << "trace ring wrapped; grow the capacity";
    std::ostringstream os;
    trace::write_text(*t, trace::kernel_schema(), os);
    out.traces.push_back(os.str());
  }
  // No admission pressure, no watchdog: the producer-side tracer must
  // stay silent, or the "no shed/stall events exist" premise is broken.
  if (shards.producer_tracer() != nullptr) {
    EXPECT_EQ(shards.producer_tracer()->recorded(), 0u);
  }
  return out;
}

void expect_identical(const Replay& ref, const Replay& got,
                      const char* what) {
  ASSERT_EQ(got.snaps.size(), ref.snaps.size()) << what;
  for (std::size_t i = 0; i < ref.snaps.size(); ++i) {
    EXPECT_TRUE(got.snaps[i] == ref.snaps[i])
        << what << ": normalized aggregate diverged at snapshot " << i << "/"
        << ref.snaps.size() << " (pkts_seen " << got.snaps[i].pkts_seen
        << " vs " << ref.snaps[i].pkts_seen << ")";
  }
  EXPECT_EQ(got.delivered_bytes, ref.delivered_bytes) << what;
  EXPECT_EQ(got.delivered_digest, ref.delivered_digest)
      << what << ": delivered bytes differ";
  ASSERT_EQ(got.traces.size(), ref.traces.size()) << what;
  for (std::size_t i = 0; i < ref.traces.size(); ++i) {
    EXPECT_EQ(got.traces[i], ref.traces[i])
        << what << ": shard " << i << " golden trace timeline diverged";
  }
}

TEST(SchedulePerturbation, DelayedWorkersChangeNothingObservable) {
  faultinject::AdversaryConfig acfg;
  acfg.seed = 42;
  acfg.packets = 6000;
  const std::vector<Packet> pkts =
      faultinject::AdversaryGen(acfg).generate();

  kernel::KernelConfig cfg;
  cfg.memory_size = 256ull << 20;
  cfg.max_streams = 0;
  cfg.defaults.cutoff_bytes = 4096;
  cfg.expiry_interval = Duration::from_msec(2);
  cfg.defaults.inactivity_timeout = Duration::from_msec(4);

  const Replay ref = replay(pkts, cfg);
  ASSERT_GE(ref.snaps.size(), 4u) << "tick grid produced too few snapshots";
  EXPECT_GT(ref.snaps.back().pkts_seen, 0u);
  EXPECT_GT(ref.delivered_bytes, 0u) << "nothing delivered";

  // Two distinct perturbation schedules: a periodic nap on every shard,
  // and a denser hashed nap victimizing a single shard (worst skew).
  {
    faultinject::InjectionPlan plan;
    plan.seed = 7;
    plan.at(faultinject::FaultPoint::kWorkerDelay).every_n = 3;
    faultinject::FaultInjector inj(plan);
    faultinject::FaultScope scope(inj);
    const Replay got = replay(pkts, cfg);
    EXPECT_GT(inj.injected(faultinject::FaultPoint::kWorkerDelay), 0u)
        << "perturbation never fired; the test is vacuous";
    expect_identical(ref, got, "every-3rd-batch nap");
  }
  {
    faultinject::InjectionPlan plan;
    plan.seed = 9;
    plan.at(faultinject::FaultPoint::kWorkerDelay).probability = 0.5;
    plan.at(faultinject::FaultPoint::kWorkerDelay).only_key = 1;
    faultinject::FaultInjector inj(plan);
    faultinject::FaultScope scope(inj);
    const Replay got = replay(pkts, cfg);
    EXPECT_GT(inj.injected(faultinject::FaultPoint::kWorkerDelay), 0u)
        << "perturbation never fired; the test is vacuous";
    expect_identical(ref, got, "skewed single-shard nap");
  }
}

}  // namespace
}  // namespace scap
