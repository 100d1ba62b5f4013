// chaos_run — deterministic adversarial smoke harness (DESIGN.md §8).
//
// Drives a full inline Capture with the seeded AdversaryGen traffic mix
// (well-formed sessions + garbage + header mutations + SYN/frag floods)
// while a FaultScope fails allocation/insertion sites on a replayable
// schedule, then prints a deterministic report of every counter the run
// touched. The process exits non-zero if any hardening invariant breaks:
//
//   - the parse-error taxonomy must sum to pkts_invalid
//   - every injected fault must surface in a counter, not a crash
//   - with --check-reproducible, two runs of the same seed must produce
//     byte-identical reports (the bit-reproducibility acceptance gate)
//   - with --check-invariants, the kernel's full conservation suite
//     (ScapKernel::check_invariants: verdict-histogram conservation, pool
//     balance, PPL monotonicity) is evaluated every 1000 packets and after
//     the final flush; any violation fails the run
//
// With --workers N the same storm runs through the sharded datapath
// (KernelShards, DESIGN.md §12): conservation is then checked per shard and
// on the shard-aggregated stats. The single-threaded allocator fault points
// stay off in that mode (the per-point rng stream is not worker-safe), but
// --mc-faults arms the *keyed* sharded-datapath points (DESIGN.md §13):
// kRingPush forces admission sheds on a deterministic schedule, and
// kWorkerStall parks one shard's worker (shard seed % workers) so the
// watchdog must detect it and the degrade policy must shed its traffic
// while the other shards keep capturing. It also arms kFdirAdd: with
// workers, filters are added only on the producer, in service_fdir, so
// that point's rng stream has one caller. Keyed decisions are pure
// functions of (seed, point, shard, ordinal), so an --mc-faults run with
// FDIR off is bit-reproducible — with --check-reproducible, FDIR is
// disabled automatically in sharded mode (a worker's install command
// reaches the NIC when the producer next drains the shard's outbox, so
// hardware drops race the packet stream exactly as on real hardware).
// --ring-high-wm / --ring-low-wm additionally enable watermark ring
// admission; occupancy is scheduling-dependent, so those runs gate on
// invariants, not on bit-reproducibility.
//
// Usage: chaos_run [--seed S] [--packets N] [--workers N] [--mc-faults]
//                  [--ring-high-wm PCT] [--ring-low-wm PCT]
//                  [--check-reproducible] [--check-invariants]
//                  [--trace-out FILE]
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <numeric>
#include <optional>
#include <string>

#include "faultinject/adversary.hpp"
#include "faultinject/faultinject.hpp"
#include "kernel/stats_determinism.hpp"
#include "packet/headers.hpp"
#include "scap/capture.hpp"
#include "trace/export.hpp"

namespace {

using scap::Capture;
using scap::Parameter;
using scap::faultinject::AdversaryConfig;
using scap::faultinject::AdversaryGen;
using scap::faultinject::FaultInjector;
using scap::faultinject::FaultPoint;
using scap::faultinject::FaultScope;
using scap::faultinject::InjectionPlan;
using scap::faultinject::kNumFaultPoints;
using scap::kernel::KernelStats;
using scap::kernel::StatDeterminism;

struct Options {
  std::uint64_t seed = 1;
  std::uint64_t packets = 20000;
  int workers = 0;  // 0 = inline; N = sharded datapath with N workers
  bool mc_faults = false;   // arm keyed ring/stall faults (sharded mode)
  int ring_high_wm = 0;     // watermark admission, % of ring capacity
  int ring_low_wm = 0;
  bool check_reproducible = false;
  bool check_invariants = false;
  std::string trace_out;  // write the binary trace here (empty = don't)
};

template <typename T>
void append(std::string& out, const char* key, T value) {
  out += key;
  out += '=';
  out += std::to_string(value);
  out += '\n';
}

/// Report key suffix for index `i` of a KernelStats array: the enumerator
/// name for the two enum-indexed arrays, the plain index otherwise.
template <auto Array>
std::string index_name(std::size_t i) {
  return std::to_string(i);
}
template <>
std::string index_name<&KernelStats::verdicts>(std::size_t i) {
  return scap::kernel::to_string(static_cast<scap::kernel::Verdict>(i));
}
template <>
std::string index_name<&KernelStats::parse_errors>(std::size_t i) {
  return scap::to_string(static_cast<scap::DecodeError>(i));
}

/// Run the adversarial scenario once; returns (report, ok). The report is a
/// pure function of the seed/packet count, so two calls with equal options
/// must return identical strings.
std::string run_once(const Options& opt, bool& ok) {
  ok = true;

  // Small memory so the adversarial load actually reaches the overload and
  // exhaustion paths it is meant to exercise. Exception: the sharded
  // bit-reproducibility gate runs unstarved — chunk memory is released on
  // worker batch boundaries, so under pressure the nomem/PPL-adaptive
  // verdicts depend on scheduling, not on the input trace (the same edge
  // the shard-conservation Exact suite removes). The starved sharded paths
  // stay covered by the watermark variant, which gates on the conservation
  // suite instead.
  const bool mc_repro = opt.workers > 0 && opt.check_reproducible;
  Capture cap("chaos0", mc_repro ? (64ull << 20) : 80 * 1024,
              scap::kernel::ReassemblyMode::kTcpStrict,
              /*need_pkts=*/false);
  cap.set_worker_threads(opt.workers);
  // Sharded FDIR commands reach the NIC when the producer drains the
  // shard outboxes, so the hardware-dropped set races the packet stream;
  // the reproducibility gate needs it off in sharded mode.
  cap.set_use_fdir(!(opt.workers > 0 && opt.check_reproducible));
  if (opt.workers > 0) {
    if (opt.ring_high_wm > 0) {
      cap.set_parameter(Parameter::kRingHighWatermarkPct, opt.ring_high_wm);
      cap.set_parameter(Parameter::kRingLowWatermarkPct, opt.ring_low_wm);
    }
    if (opt.mc_faults) {
      // A parked worker must be detected within this (simulated) deadline
      // and degraded — the other shards keep capturing, its traffic lands
      // in ring_stall_shed_*.
      cap.set_parameter(Parameter::kStallTimeoutMs, 5);
      cap.set_parameter(Parameter::kStallPolicy, 1);  // degrade
    }
  }
  cap.set_defragment(true);
  // Cutoffs trip after two chunks -> FDIR installs (and their injected
  // faults), while streams still hold blocks long enough that memory
  // pressure sustains and the adaptive controller engages.
  cap.set_cutoff(16 * 1024);
  cap.set_parameter(Parameter::kChunkSize, 8 * 1024);
  cap.set_parameter(Parameter::kPriorityLevels, 4);
  // High base threshold: PPL itself sheds little, so sustained pressure
  // reaches the adaptive controller's enter band — the regime the
  // EWMA/hysteresis cutoff exists for.
  cap.set_parameter(Parameter::kBaseThresholdPercent, 80);
  // Adaptive overload control instead of a static cutoff.
  cap.set_parameter(Parameter::kAdaptiveCutoff, 64 * 1024);
  cap.set_parameter(Parameter::kAdaptiveMinCutoff, 4 * 1024);

  // Applications set priorities from the creation callback (paper §3.3);
  // spread streams across the priority ladder by client port (the server
  // port is 80 for the whole mix, which would pin everything to one level).
  cap.dispatch_creation([](scap::StreamView& sv) {
    sv.set_priority(static_cast<int>(sv.tuple().src_port % 4));
  });

  InjectionPlan plan;
  plan.seed = opt.seed;
  if (opt.workers == 0) {
    plan.at(FaultPoint::kRecordPoolAcquire).probability = 0.01;
    plan.at(FaultPoint::kChunkAlloc).probability = 0.02;
    plan.at(FaultPoint::kSegmentStoreInsert).probability = 0.02;
    plan.at(FaultPoint::kFdirAdd).probability = 0.05;
  } else if (opt.mc_faults) {
    // Keyed points: their verdicts hash (seed, point, shard, ordinal), so
    // they are safe — and deterministic — under worker concurrency.
    // kFdirAdd is rolled only by the producer's FDIR applier.
    plan.at(FaultPoint::kFdirAdd).probability = 0.05;
    plan.at(FaultPoint::kRingPush).probability = 0.01;
    plan.at(FaultPoint::kWorkerStall).every_n = 1;
    plan.at(FaultPoint::kWorkerStall).only_key =
        static_cast<std::int64_t>(opt.seed % static_cast<std::uint64_t>(
                                                 opt.workers));
  }
  FaultInjector injector(plan);

  AdversaryConfig acfg;
  acfg.seed = opt.seed;
  acfg.packets = opt.packets;
  // Spread the schedule over enough virtual time that the kernel's
  // per-second maintenance pass — which feeds the adaptive controller and
  // services FDIR timeouts — runs many times during the storm.
  acfg.spacing = scap::Duration::from_usec(1000);
  AdversaryGen gen(acfg);

  // Tracing is always on here: the per-type trace counts and histograms
  // below feed the reproducibility gate and the trace conservation laws
  // checked by --check-invariants.
  cap.enable_tracing(1 << 14);
  {
    // Inline mode arms the allocator points; sharded mode installs the
    // scope only for the keyed ring/stall points and the producer-only
    // kFdirAdd (--mc-faults), whose decisions are interleaving-independent
    // or single-threaded (see header comment). The
    // scope must be installed before start(): sharded workers consult
    // kWorkerStall at thread entry, and racing the installation would make
    // the victim set nondeterministic.
    std::optional<FaultScope> scope;
    if (opt.workers == 0 || opt.mc_faults) scope.emplace(injector);
    cap.start();
    for (std::uint64_t i = 0; i < opt.packets; ++i) {
      cap.inject(gen.next());
      if (opt.check_invariants && (i + 1) % 1000 == 0) {
        // In sharded mode this locks each shard at a batch boundary and
        // additionally checks conservation on the aggregated stats.
        const std::string v = cap.check_invariants();
        if (!v.empty()) {
          std::fprintf(stderr,
                       "INVARIANT VIOLATION after %" PRIu64 " packets: %s\n",
                       i + 1, v.c_str());
          ok = false;
        }
      }
    }
    cap.stop();  // flush inside the scope: teardown paths get faults too
  }
  if (opt.check_invariants) {
    const std::string v = cap.check_invariants();
    if (!v.empty()) {
      std::fprintf(stderr, "INVARIANT VIOLATION after flush: %s\n", v.c_str());
      ok = false;
    }
  }

  const scap::CaptureStats stats = cap.stats();
  const KernelStats& k = stats.kernel;

  std::string report;
  report += "chaos_run report\n";
  append(report, "seed", opt.seed);
  append(report, "packets", opt.packets);

  // Every KernelStats counter is dumped, one line per counter-table row
  // (kernel/stats_determinism.inc; arrays one line per index). Under
  // --check-reproducible a row's own determinism class decides whether it
  // is compared: kSchedulingDependent rows are left out.
  const auto append_stat = [&](const std::string& key, StatDeterminism cls,
                               auto value) {
    if (opt.check_reproducible &&
        cls == StatDeterminism::kSchedulingDependent) {
      return;
    }
    append(report, key.c_str(), value);
  };
#define SCAP_STATS_FIELD(name, combine, determinism) \
  append_stat(#name, StatDeterminism::determinism, k.name);
#define SCAP_STATS_ARRAY(name, combine, determinism, kernel_size, c_capacity) \
  for (std::size_t i = 0; i < kernel_size; ++i) {                             \
    append_stat(#name "." + index_name<&KernelStats::name>(i),                \
                StatDeterminism::determinism, k.name[i]);                     \
  }
#include "kernel/stats_determinism.inc"
  append(report, "nic_dropped_by_filter", stats.nic_dropped_by_filter);

  // Fault injector: calls seen and failures injected per point.
  for (std::size_t i = 0; i < kNumFaultPoints; ++i) {
    const auto p = static_cast<FaultPoint>(i);
    std::string key = "fault.";
    key += scap::faultinject::to_string(p);
    append(report, (key + ".calls").c_str(), injector.calls(p));
    append(report, (key + ".injected").c_str(), injector.injected(p));
  }

  // Trace layer: per-type event counts (wrap-independent) and the metric
  // histograms. All zero in SCAP_TRACE=OFF builds, deterministic otherwise,
  // so the reproducibility gate covers the tracer too.
  const scap::trace::Tracer* tracer = cap.tracer();
  append(report, "trace_events_recorded", stats.trace_events_recorded);
  append(report, "trace_events_dropped", stats.trace_events_dropped);
  // Per-type counts across every tracer: the capture-level one plus, in
  // sharded mode, each shard kernel's (workers are joined after stop(), so
  // direct access is safe).
  const auto recorded_of = [&cap, tracer](scap::trace::TraceEventType t) {
    std::uint64_t n = tracer != nullptr ? tracer->recorded_of(t) : 0;
    if (cap.shards() != nullptr) {
      for (int i = 0; i < cap.shards()->num_shards(); ++i) {
        const scap::trace::Tracer* st = cap.shards()->tracer(i);
        if (st != nullptr) n += st->recorded_of(t);
      }
      // Ring sheds and stall declarations are producer-side events; they
      // live on the shards' producer tracer, not on any shard kernel's.
      const scap::trace::Tracer* pt = cap.shards()->producer_tracer();
      if (pt != nullptr) n += pt->recorded_of(t);
    }
    return n;
  };
  for (std::size_t i = 0; i < scap::trace::kNumTraceEventTypes; ++i) {
    const auto t = static_cast<scap::trace::TraceEventType>(i);
    std::string key = "trace.";
    key += scap::trace::to_string(t);
    append(report, key.c_str(), recorded_of(t));
  }
  const struct {
    const char* name;
    const scap::trace::Log2Histogram* hist;
  } hists[] = {
      {"stream_size_bytes", &stats.metrics.stream_size_bytes},
      {"chunk_latency_us", &stats.metrics.chunk_latency_us},
      {"flow_probe_len", &stats.metrics.flow_probe_len},
      {"queue_occupancy", &stats.metrics.queue_occupancy},
  };
  for (const auto& h : hists) {
    const std::string key = std::string("hist.") + h.name;
    append(report, (key + ".total").c_str(), h.hist->total());
    // Sharded mode: registry-classified scheduling-dependent histograms
    // (queue occupancy measures consumer lag at each tick) keep their
    // deterministic sample *count* in the comparison but not the bucket
    // distribution.
    if (opt.workers > 0 && opt.check_reproducible &&
        scap::kernel::metric_hist_class(h.name) ==
            StatDeterminism::kSchedulingDependent) {
      continue;
    }
    for (std::size_t b = 0; b < scap::trace::Log2Histogram::kBuckets; ++b) {
      if (h.hist->count(b) == 0) continue;
      append(report, (key + ".b" + std::to_string(b)).c_str(),
             h.hist->count(b));
    }
  }

  if (!opt.trace_out.empty() && tracer != nullptr) {
    std::ofstream trace_file(opt.trace_out, std::ios::binary);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open %s\n", opt.trace_out.c_str());
      ok = false;
    } else {
      scap::trace::write_binary(*tracer, trace_file);
    }
  }

  // --- invariants ----------------------------------------------------------
  const std::uint64_t taxonomy_sum = std::accumulate(
      std::begin(k.parse_errors), std::end(k.parse_errors), std::uint64_t{0});
  if (taxonomy_sum != k.pkts_invalid) {
    std::fprintf(stderr,
                 "INVARIANT VIOLATION: parse-error taxonomy sums to %" PRIu64
                 " but pkts_invalid=%" PRIu64 "\n",
                 taxonomy_sum, k.pkts_invalid);
    ok = false;
  }
  // Record-pool faults must surface as no-record drops. (Not an equality:
  // injected faults on the teardown/flush path have no packet to count.)
  if (injector.injected(FaultPoint::kRecordPoolAcquire) > 0 &&
      k.pkts_norec_dropped == 0) {
    std::fprintf(stderr,
                 "INVARIANT VIOLATION: record-pool faults injected but "
                 "pkts_norec_dropped=0\n");
    ok = false;
  }
  if (injector.injected(FaultPoint::kFdirAdd) > k.fdir_install_failures) {
    std::fprintf(stderr,
                 "INVARIANT VIOLATION: %" PRIu64
                 " FDIR faults injected but only %" PRIu64
                 " install failures counted\n",
                 injector.injected(FaultPoint::kFdirAdd),
                 k.fdir_install_failures);
    ok = false;
  }
  // Every forced admission fault must surface as a counted shed, and every
  // injected worker stall must have been detected by the watchdog.
  if (injector.injected(FaultPoint::kRingPush) > k.ring_shed_pkts) {
    std::fprintf(stderr,
                 "INVARIANT VIOLATION: %" PRIu64
                 " ring-push faults injected but only %" PRIu64
                 " packets shed\n",
                 injector.injected(FaultPoint::kRingPush), k.ring_shed_pkts);
    ok = false;
  }
  if (injector.injected(FaultPoint::kWorkerStall) > k.worker_stalls) {
    std::fprintf(stderr,
                 "INVARIANT VIOLATION: %" PRIu64
                 " worker stalls injected but only %" PRIu64
                 " detected by the watchdog\n",
                 injector.injected(FaultPoint::kWorkerStall),
                 k.worker_stalls);
    ok = false;
  }
  if (injector.injected(FaultPoint::kWorkerStall) > 0 &&
      k.ring_stall_shed_pkts == 0) {
    std::fprintf(stderr,
                 "INVARIANT VIOLATION: a worker stalled but no traffic was "
                 "shed into ring_stall_shed_*\n");
    ok = false;
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opt.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--packets") == 0 && i + 1 < argc) {
      opt.packets = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      opt.workers = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
    } else if (std::strcmp(argv[i], "--mc-faults") == 0) {
      opt.mc_faults = true;
    } else if (std::strcmp(argv[i], "--ring-high-wm") == 0 && i + 1 < argc) {
      opt.ring_high_wm = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
    } else if (std::strcmp(argv[i], "--ring-low-wm") == 0 && i + 1 < argc) {
      opt.ring_low_wm = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
    } else if (std::strcmp(argv[i], "--check-reproducible") == 0) {
      opt.check_reproducible = true;
    } else if (std::strcmp(argv[i], "--check-invariants") == 0) {
      opt.check_invariants = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      opt.trace_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: chaos_run [--seed S] [--packets N] [--workers N] "
                   "[--mc-faults] [--ring-high-wm PCT] [--ring-low-wm PCT] "
                   "[--check-reproducible] [--check-invariants] "
                   "[--trace-out FILE]\n");
      return 2;
    }
  }

  bool ok = true;
  const std::string report = run_once(opt, ok);
  std::fputs(report.c_str(), stdout);

  if (opt.check_reproducible) {
    bool ok2 = true;
    const std::string again = run_once(opt, ok2);
    ok = ok && ok2;
    if (again != report) {
      std::fprintf(stderr,
                   "REPRODUCIBILITY VIOLATION: two runs with seed %" PRIu64
                   " produced different reports\n",
                   opt.seed);
      std::fputs(again.c_str(), stderr);
      return 1;
    }
    std::printf("reproducible=1\n");
  }
  return ok ? 0 : 1;
}
