// Timed capture sessions through the public scap::Capture API.
#include <memory>

#include "bench.hpp"

namespace perfbench {

Session run_capture_session(const WorkloadSpec& spec,
                            const flowgen::Trace& trace, const Expected& want,
                            LatencyHistogram& batch_ns) {
  Session s;
  const std::int64_t setup_start = now_ns();
  // The application outlives the capture whose handlers point at it.
  auto app = std::make_unique<App>(spec, 2 * trace.flows.size());
  scap::Capture cap("perfbench", kMemorySize,
                    scap::kernel::ReassemblyMode::kTcpFast,
                    /*need_pkts=*/false);
  if (spec.cutoff >= 0) cap.set_cutoff(spec.cutoff);
  cap.set_use_fdir(spec.fdir);
  cap.set_worker_threads(spec.workers);
  App* a = app.get();
  cap.dispatch_data([a](scap::StreamView& sd) { a->on_data(sd, nullptr); });
  cap.dispatch_termination(
      [a](scap::StreamView& sd) { a->on_terminated(sd, nullptr); });
  cap.start();
  s.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  // Closed loop: the next batch goes out when inject_batch returns.
  const std::span<const Packet> pkts(trace.packets);
  const std::int64_t cpu0 = process_cpu_ns();
  const std::uint64_t allocs0 = allocs_total();
  const std::int64_t t0 = now_ns();
  std::int64_t prev = t0;
  for (std::size_t i = 0; i < pkts.size(); i += kBatch) {
    cap.inject_batch(pkts.subspan(i, std::min(kBatch, pkts.size() - i)));
    const std::int64_t t = now_ns();
    batch_ns.add(static_cast<std::uint64_t>(t - prev));
    prev = t;
  }
  const std::int64_t injected = now_ns();
  s.rss_mib = rss_mib();
  const std::int64_t stop_start = now_ns();
  cap.stop();
  const std::int64_t t1 = now_ns();
  s.cpu_ns = process_cpu_ns() - cpu0;
  s.allocs = allocs_total() - allocs0;
  s.timed_s = static_cast<double>((injected - t0) + (t1 - stop_start)) / 1e9;
  s.packets = pkts.size();

  const scap::CaptureStats stats = cap.stats();
  s.got = observe(stats.kernel, stats.nic_dropped_by_filter, pkts.size(),
                  cap.check_invariants());
  app->collect(s.got);
  s.errors = validate(spec, want, s.got);
  return s;
}

}  // namespace perfbench
