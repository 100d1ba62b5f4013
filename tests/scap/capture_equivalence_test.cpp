// Capture-level datapath equivalence (DESIGN.md §12).
//
// Capture runs one datapath: KernelShards with max(workers, 1) shards,
// where zero workers means the injecting thread processes its one shard
// itself. Because symmetric RSS gives every flow to exactly one shard and
// maintenance ticks are anchored at the first packet and ordered with the
// traffic, what the capture counts is a pure function of the input —
// independent of the worker count and of how the caller batches inject
// calls. This suite asserts that through the public Capture API:
//
//   * the same AdversaryGen trace at 0, 1, 2 and 4 workers yields equal
//     normalized kernel stats, equal dispatch/NIC counters, an equal
//     count of streams closed by inactivity expiry and an equal digest of
//     the bytes delivered to the application, with every conservation law
//     holding;
//   * at 0 workers, inject() per packet and inject_batch() at batch sizes
//     7 and 32 yield identical stats, identical text traces and an equal
//     delivered-bytes digest.
//
// The regime is the shard-conservation "exact" one: ample memory, no
// stream budget, no FDIR, no defrag, no flush timeouts, a 4 KiB cutoff,
// and an idle timeout of two maintenance intervals over a trace spanning
// several, so streams expire mid-trace and tick-vs-packet ordering is
// exercised, not only the final flush.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "faultinject/adversary.hpp"
#include "kernel/stats_determinism.hpp"
#include "scap/capture.hpp"
#include "tests/scap/delivered_digest.hpp"
#include "trace/export.hpp"

namespace scap {
namespace {

constexpr std::uint64_t kPackets = 6000;

std::vector<Packet> adversary_packets(std::uint64_t seed) {
  faultinject::AdversaryConfig cfg;
  cfg.seed = seed;
  cfg.packets = kPackets;
  // 1 ms spacing spreads the trace over ~6 s of virtual time: six 1 s
  // maintenance ticks, with the 2 s idle timeout below expiring streams
  // at several of them.
  cfg.spacing = Duration::from_usec(1000);
  return faultinject::AdversaryGen(cfg).generate();
}

struct Result {
  kernel::KernelStats kernel;  // normalized
  std::uint64_t events_dispatched = 0;
  std::uint64_t nic_dropped_by_filter = 0;
  std::uint64_t timeout_closes = 0;
  std::uint64_t delivered_digest = 0;
  std::uint64_t delivered_bytes = 0;
  std::string invariants;
  std::string trace;  // text timeline + histograms (traced runs only)
};

/// Run `pkts` through a Capture with `workers` workers. `batch` == 0 feeds
/// inject() per packet; otherwise inject_batch() in chunks of `batch`.
Result run(const std::vector<Packet>& pkts, int workers, std::size_t batch,
           bool traced) {
  Capture cap("equiv0", 256ull << 20, kernel::ReassemblyMode::kTcpFast,
              /*need_pkts=*/false);
  cap.set_worker_threads(workers);
  cap.set_cutoff(4096);
  cap.set_parameter(Parameter::kInactivityTimeoutMs, 2000);
  std::atomic<std::uint64_t> timeout_closes{0};
  DeliveredDigest delivered;
  cap.dispatch_data([&delivered](StreamView& sv) {
    delivered.on_data(sv.tuple(), sv.data().subspan(sv.overlap_len()));
  });
  cap.dispatch_termination([&](StreamView& sv) {
    delivered.on_terminated(sv.tuple());
    if (sv.status() == kernel::StreamStatus::kClosedTimeout) {
      timeout_closes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  if (traced) cap.enable_tracing(1 << 17);
  cap.start();
  if (batch == 0) {
    for (const Packet& p : pkts) cap.inject(p);
  } else {
    const std::span<const Packet> all(pkts);
    for (std::size_t i = 0; i < all.size(); i += batch) {
      cap.inject_batch(all.subspan(i, std::min(batch, all.size() - i)));
    }
  }
  cap.stop();

  Result r;
  const CaptureStats s = cap.stats();
  r.kernel = kernel::normalized(s.kernel);
  r.events_dispatched = s.events_dispatched;
  r.nic_dropped_by_filter = s.nic_dropped_by_filter;
  r.timeout_closes = timeout_closes.load();
  std::tie(r.delivered_digest, r.delivered_bytes) = delivered.result();
  r.invariants = cap.check_invariants();
  if (traced) {
    EXPECT_EQ(cap.tracer()->dropped(), 0u) << "trace ring wrapped";
    std::ostringstream os;
    trace::write_text(*cap.tracer(), trace::kernel_schema(), os);
    trace::write_histograms(cap.tracer()->metrics(), os);
    r.trace = os.str();
  }
  return r;
}

class CaptureEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CaptureEquivalence, WorkerCountsAgree) {
  const std::vector<Packet> pkts = adversary_packets(GetParam());
  const Result ref = run(pkts, /*workers=*/0, /*batch=*/32, false);
  EXPECT_EQ(ref.invariants, "");
  EXPECT_EQ(ref.kernel.pkts_seen + ref.nic_dropped_by_filter, kPackets);
  EXPECT_GT(ref.timeout_closes, 0u) << "no stream expired mid-trace";
  EXPECT_EQ(ref.events_dispatched, ref.kernel.events_emitted);
  EXPECT_GT(ref.delivered_bytes, 0u) << "nothing delivered";

  for (int workers : {1, 2, 4}) {
    const Result got = run(pkts, workers, /*batch=*/32, false);
    EXPECT_EQ(got.invariants, "") << "workers=" << workers;
    EXPECT_TRUE(got.kernel == ref.kernel)
        << "workers=" << workers << " diverged from 0 workers (pkts_seen "
        << got.kernel.pkts_seen << " vs " << ref.kernel.pkts_seen
        << ", streams_terminated " << got.kernel.streams_terminated << " vs "
        << ref.kernel.streams_terminated << ", events_emitted "
        << got.kernel.events_emitted << " vs " << ref.kernel.events_emitted
        << ")";
    EXPECT_EQ(got.events_dispatched, ref.events_dispatched)
        << "workers=" << workers;
    EXPECT_EQ(got.nic_dropped_by_filter, ref.nic_dropped_by_filter)
        << "workers=" << workers;
    EXPECT_EQ(got.timeout_closes, ref.timeout_closes) << "workers=" << workers;
    EXPECT_EQ(got.delivered_bytes, ref.delivered_bytes)
        << "workers=" << workers;
    EXPECT_EQ(got.delivered_digest, ref.delivered_digest)
        << "workers=" << workers << ": delivered bytes differ";
  }
}

TEST_P(CaptureEquivalence, InlineBatchingIsInvisible) {
  const std::vector<Packet> pkts = adversary_packets(GetParam());
  const Result ref = run(pkts, /*workers=*/0, /*batch=*/0, true);
  EXPECT_EQ(ref.invariants, "");
  EXPECT_GT(ref.timeout_closes, 0u) << "no stream expired mid-trace";
  EXPECT_GT(ref.delivered_bytes, 0u) << "nothing delivered";

  for (std::size_t batch : {std::size_t{7}, std::size_t{32}}) {
    const Result got = run(pkts, /*workers=*/0, batch, true);
    EXPECT_EQ(got.invariants, "") << "batch=" << batch;
    EXPECT_TRUE(got.kernel == ref.kernel)
        << "batch=" << batch << " diverged from per-packet inject (pkts_seen "
        << got.kernel.pkts_seen << " vs " << ref.kernel.pkts_seen
        << ", streams_terminated " << got.kernel.streams_terminated << " vs "
        << ref.kernel.streams_terminated << ")";
    EXPECT_EQ(got.events_dispatched, ref.events_dispatched)
        << "batch=" << batch;
    EXPECT_EQ(got.timeout_closes, ref.timeout_closes) << "batch=" << batch;
    EXPECT_EQ(got.delivered_bytes, ref.delivered_bytes) << "batch=" << batch;
    EXPECT_EQ(got.delivered_digest, ref.delivered_digest)
        << "batch=" << batch << ": delivered bytes differ";
    EXPECT_TRUE(got.trace == ref.trace)
        << "batch=" << batch << ": trace differs from per-packet inject";
  }
}

INSTANTIATE_TEST_SUITE_P(SeededWorkloads, CaptureEquivalence,
                         ::testing::Values(11u, 21u));

}  // namespace
}  // namespace scap
