// Traced sessions: per batch, the same public calls Capture::inject_batch
// makes, each wrapped in a span, so every layer's self time, allocations
// and counts come from one run.
//
//   inline:  Nic::receive -> ScapKernel::handle_batch -> event drain
//            -> handler -> release_chunk
//   sharded: Nic::receive -> KernelShards::submit_to (+ in-band ticks);
//            a DrainFn hook on the workers spans the event drain, and
//            per-worker CPU comes from /proc/self/task.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "base/mutex.hpp"
#include "bench.hpp"
#include "kernel/shard.hpp"
#include "nic/nic.hpp"

namespace perfbench {
namespace {

namespace kn = scap::kernel;

constexpr std::size_t kKeptSpans = 5000;  // per log, for the Chrome dump

/// The KernelConfig Capture builds for this workload.
kn::KernelConfig capture_config(const WorkloadSpec& spec) {
  kn::KernelConfig c;
  c.memory_size = kMemorySize;
  c.defaults.mode = kn::ReassemblyMode::kTcpFast;
  c.need_pkts = false;
  if (spec.cutoff >= 0) c.defaults.cutoff_bytes = spec.cutoff;
  c.use_fdir = spec.fdir;
  c.num_cores = spec.workers > 0 ? spec.workers : 1;
  return c;
}

/// Counters summed over traced sessions.
struct Totals {
  std::uint64_t packets = 0;
  std::uint64_t kernel_pkts = 0;
  std::uint64_t nic_drops = 0;
  std::uint64_t events = 0;
  std::uint64_t fdir_ok = 0;
  std::uint64_t fdir_failed = 0;
  std::uint64_t chunks = 0;
  std::uint64_t created = 0;
  std::uint64_t recycled = 0;
  std::uint64_t cutoff = 0;
  std::uint64_t scanned_bytes = 0;
  std::uint64_t matches = 0;
  std::uint64_t planted = 0;
  std::uint64_t records = 0;
  std::int64_t wall_ns = 0;        // producer: first batch through stop
  std::int64_t worker_cpu_ns = 0;  // sharded
  std::int64_t worker_kernel_cpu_ns = 0;
  std::uint64_t worker_kernel_allocs = 0;
  std::vector<double> imbalance;
  std::vector<double> flush_ms;
  std::vector<double> ring_peak;
};

/// The application's handlers as Capture holds them: std::function
/// objects bound to the span log of the thread that runs them.
struct Handlers {
  scap::StreamHandler on_data;
  scap::StreamHandler on_terminated;
  Handlers(App& app, SpanLog* log)
      : on_data([&app, log](scap::StreamView& sd) { app.on_data(sd, log); }),
        on_terminated([&app, log](scap::StreamView& sd) {
          app.on_terminated(sd, log);
        }) {}
};

/// Pop every event of `core`, run its handler, release the chunk: the body
/// of Capture::dispatch_event_on without the trace hook.
std::uint64_t drain_events(kn::ScapKernel& k, int core, const Handlers& h,
                           SpanLog* log, std::uint64_t batch) {
  Span drain(log, Layer::kDrain, batch);
  std::uint64_t n = 0;
  auto& q = k.events(core);
  while (!q.empty()) {
    kn::Event ev = q.pop();
    scap::StreamView view(k, ev);
    const scap::StreamHandler* handler =
        ev.type == kn::EventType::kData         ? &h.on_data
        : ev.type == kn::EventType::kTerminated ? &h.on_terminated
                                                : nullptr;
    if (handler != nullptr) {
      Span span(log, Layer::kHandler, 0);
      (*handler)(view);
    }
    k.release_chunk(ev);
    ++n;
  }
  return n;
}

void fold_stats(const kn::KernelStats& k, std::uint64_t nic_drops,
                Totals& t) {
  t.kernel_pkts += k.pkts_seen;
  t.nic_drops += nic_drops;
  t.fdir_ok += k.fdir_installs + k.fdir_reinstalls;
  t.fdir_failed += k.fdir_install_failures;
  t.chunks += k.chunks_delivered;
  t.created += k.streams_created;
  t.recycled += k.pool_recycled;
  t.cutoff += k.pkts_cutoff;
}

/// Application results into the totals, then the ground-truth checks.
std::vector<std::string> finish(const WorkloadSpec& spec, const Expected& want,
                                App& app, Observed got, Totals& t) {
  app.collect(got);
  t.scanned_bytes += got.delivered_bytes;
  t.matches += got.matches;
  t.planted += want.matches;
  t.records += got.records;
  return validate(spec, want, got);
}

std::vector<std::string> inline_session(const WorkloadSpec& spec,
                                        const flowgen::Trace& trace,
                                        const Expected& want, SpanLog& log,
                                        std::uint64_t& batch_id, Totals& t) {
  App app(spec, 2 * trace.flows.size());
  const Handlers handlers(app, &log);
  const kn::KernelConfig cfg = capture_config(spec);
  scap::nic::Nic nic(cfg.num_cores);
  kn::ScapKernel k(cfg, &nic);
  scap::base::SerialGuard serial(k.serial());
  std::vector<std::vector<Packet>> buckets(
      static_cast<std::size_t>(cfg.num_cores));
  const std::span<const Packet> pkts(trace.packets);

  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < pkts.size(); i += kBatch) {
    const auto batch = pkts.subspan(i, std::min(kBatch, pkts.size() - i));
    Span root(&log, Layer::kBatch, ++batch_id);
    {
      Span rx(&log, Layer::kNicReceive, 0);
      for (const Packet& p : batch) {
        const scap::nic::RxResult r = nic.receive(p);
        if (r.disposition == scap::nic::RxDisposition::kDroppedByFilter) {
          continue;
        }
        buckets[static_cast<std::size_t>(r.queue)].push_back(p);
      }
    }
    for (std::size_t q = 0; q < buckets.size(); ++q) {
      auto& bucket = buckets[q];
      if (bucket.empty()) continue;
      const int core = static_cast<int>(q);
      {
        Span kb(&log, Layer::kKernelBatch, 0);
        k.handle_batch(bucket, bucket.front().timestamp(), core);
      }
      t.events += drain_events(k, core, handlers, &log, 0);
      bucket.clear();
    }
  }
  {
    Span stop(&log, Layer::kStop, ++batch_id);
    k.terminate_all(pkts.back().timestamp());
    for (int c = 0; c < cfg.num_cores; ++c) {
      t.events += drain_events(k, c, handlers, &log, 0);
    }
  }
  t.wall_ns += now_ns() - t0;
  t.packets += pkts.size();

  const kn::KernelStats& ks = k.stats();
  fold_stats(ks, nic.stats().dropped_by_filter, t);
  return finish(spec, want, app,
                observe(ks, nic.stats().dropped_by_filter, pkts.size(),
                        k.check_invariants()),
                t);
}

/// Per-shard worker bookkeeping written only by the thread draining it.
struct WorkerAcc {
  std::thread::id owner;
  std::uint64_t drains = 0;
  std::uint64_t events = 0;
  std::uint64_t kernel_allocs = 0;  // worker allocations outside the hook
  std::uint64_t last_exit_allocs = 0;
};

std::vector<std::string> sharded_session(
    const WorkloadSpec& spec, const flowgen::Trace& trace,
    const Expected& want, SpanLog& log,
    std::vector<std::unique_ptr<SpanLog>>& worker_logs,
    std::uint64_t& batch_id, Totals& t) {
  App app(spec, 2 * trace.flows.size());
  const kn::KernelConfig cfg = capture_config(spec);
  const int n = spec.workers;
  scap::nic::Nic nic(n);
  kn::KernelShards::Options opts;  // Capture's defaults: 4096-slot rings
  kn::KernelShards shards(cfg, n, opts);
  std::vector<WorkerAcc> acc(static_cast<std::size_t>(n));
  std::vector<Handlers> handlers;
  for (const auto& wl : worker_logs) handlers.emplace_back(app, wl.get());

  scap::base::SerialGuard prod(shards.producer());
  const std::vector<int> before = task_ids();
  shards.start([&](int shard, kn::ScapKernel& k) {
    scap::base::SerialGuard serial(k.serial());
    WorkerAcc& w = acc[static_cast<std::size_t>(shard)];
    const std::uint64_t a = allocs_thread();
    if (w.owner == std::this_thread::get_id()) {
      w.kernel_allocs += a - w.last_exit_allocs;
    } else {
      w.owner = std::this_thread::get_id();
    }
    const auto i = static_cast<std::size_t>(shard);
    w.events += drain_events(k, 0, handlers[i], worker_logs[i].get(),
                             ++w.drains);
    w.last_exit_allocs = allocs_thread();
  });
  std::vector<int> workers;
  for (int tid : task_ids()) {
    if (std::find(before.begin(), before.end(), tid) == before.end()) {
      workers.push_back(tid);
    }
  }
  std::int64_t cpu0 = 0;
  for (int tid : workers) cpu0 += task_cpu_ns(tid);
  std::vector<std::int64_t> drain0;
  for (const auto& wl : worker_logs) {
    drain0.push_back(wl->totals(Layer::kDrain).total_ns);
  }

  const std::span<const Packet> pkts(trace.packets);
  std::vector<int> queues(kBatch);
  bool ticks_started = false;
  scap::Timestamp last_tick;
  // Capture::advance_ticks: in-band maintenance markers at the expiry
  // cadence, FDIR servicing at the same cadence.
  auto advance_ticks = [&](scap::Timestamp now) {
    bool ticked = false;
    if (!ticks_started) {
      ticks_started = true;
      last_tick = now;
      shards.tick_all(now);
      ticked = true;
    }
    const scap::Duration interval = cfg.expiry_interval;
    while (interval.ns() > 0 && now.ns() - last_tick.ns() >= interval.ns()) {
      last_tick = last_tick + interval;
      shards.tick_all(last_tick);
      ticked = true;
    }
    if (ticked) shards.service_fdir(nic, last_tick);
  };

  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < pkts.size(); i += kBatch) {
    const auto batch = pkts.subspan(i, std::min(kBatch, pkts.size() - i));
    Span root(&log, Layer::kBatch, ++batch_id);
    {
      Span rx(&log, Layer::kNicReceive, 0);
      for (std::size_t j = 0; j < batch.size(); ++j) {
        const scap::nic::RxResult r = nic.receive(batch[j]);
        queues[j] = r.disposition == scap::nic::RxDisposition::kDroppedByFilter
                        ? -1
                        : r.queue;
      }
    }
    Span submit(&log, Layer::kShardSubmit, 0);
    for (std::size_t j = 0; j < batch.size(); ++j) {
      if (queues[j] < 0) continue;
      advance_ticks(batch[j].timestamp());
      shards.submit_to(queues[j], batch[j]);
    }
  }
  const std::int64_t loop_ns = now_ns() - t0;
  const scap::Timestamp last_ts = pkts.back().timestamp();
  std::int64_t flush_ns = 0;
  {
    Span stop(&log, Layer::kStop, ++batch_id);
    const std::int64_t f0 = now_ns();
    shards.flush();
    flush_ns += now_ns() - f0;
  }
  std::int64_t cpu1 = 0;
  for (int tid : workers) cpu1 += task_cpu_ns(tid);
  std::int64_t drain_ns = 0;
  for (std::size_t s = 0; s < worker_logs.size(); ++s) {
    drain_ns += worker_logs[s]->totals(Layer::kDrain).total_ns - drain0[s];
  }
  {
    Span stop(&log, Layer::kStop, ++batch_id);
    const std::int64_t s0 = now_ns();
    shards.stop(last_ts);
    shards.service_fdir(nic, last_ts);
    flush_ns += now_ns() - s0;
  }
  t.wall_ns += loop_ns + flush_ns;  // the /proc reads are excluded
  t.packets += pkts.size();
  t.worker_cpu_ns += cpu1 - cpu0;
  t.worker_kernel_cpu_ns += (cpu1 - cpu0) - drain_ns;
  t.flush_ms.push_back(static_cast<double>(flush_ns) / 1e6);

  const kn::KernelStats ks = shards.stats();
  fold_stats(ks, nic.stats().dropped_by_filter, t);
  std::uint64_t max_pkts = 0;
  for (int s = 0; s < n; ++s) {
    max_pkts = std::max(max_pkts, shards.shard_stats(s).pkts_seen);
  }
  t.imbalance.push_back(
      ks.pkts_seen > 0 ? static_cast<double>(max_pkts) * n /
                             static_cast<double>(ks.pkts_seen)
                       : 0.0);
  t.ring_peak.push_back(static_cast<double>(ks.ring_occupancy_peak));
  for (const WorkerAcc& w : acc) {
    t.events += w.events;
    t.worker_kernel_allocs += w.kernel_allocs;
  }
  return finish(spec, want, app,
                observe(ks, nic.stats().dropped_by_filter, pkts.size(),
                        shards.check_invariants()),
                t);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

struct TracedRun::State {
  explicit State(const WorkloadSpec& w) : spec(w) {
    for (int s = 0; s < spec.workers; ++s) {
      worker_logs.push_back(std::make_unique<SpanLog>(s + 1, kKeptSpans));
    }
  }
  WorkloadSpec spec;
  SpanLog log{0, kKeptSpans};
  std::vector<std::unique_ptr<SpanLog>> worker_logs;
  Totals t;
  std::uint64_t batch_id = 0;
  std::uint64_t sessions = 0;
  std::int64_t t_start = now_ns();
};

TracedRun::TracedRun(const WorkloadSpec& spec)
    : st_(std::make_unique<State>(spec)) {}
TracedRun::~TracedRun() = default;

std::vector<std::string> TracedRun::session(const flowgen::Trace& trace,
                                            const Expected& want) {
  State& st = *st_;
  ++st.sessions;
  return st.spec.workers > 0
             ? sharded_session(st.spec, trace, want, st.log, st.worker_logs,
                               st.batch_id, st.t)
             : inline_session(st.spec, trace, want, st.log, st.batch_id, st.t);
}

LayerReport TracedRun::report(double untraced_ns_per_pkt) const {
  const State& st = *st_;
  const WorkloadSpec& spec = st.spec;
  const SpanLog& log = st.log;
  const auto& worker_logs = st.worker_logs;
  const Totals& t = st.t;
  const std::int64_t t_start = st.t_start;
  LayerReport rep;
  rep.sessions = st.sessions;
  const bool sharded = spec.workers > 0;

  auto self = [&](Layer l) {
    std::int64_t ns = log.totals(l).self_ns;
    for (const auto& wl : worker_logs) ns += wl->totals(l).self_ns;
    return static_cast<double>(ns);
  };
  auto allocs_self = [&](Layer l) {
    std::uint64_t a = log.totals(l).allocs_self;
    for (const auto& wl : worker_logs) a += wl->totals(l).allocs_self;
    return static_cast<double>(a);
  };
  auto spans = [&](Layer l) {
    std::uint64_t n = log.totals(l).spans;
    for (const auto& wl : worker_logs) n += wl->totals(l).spans;
    return static_cast<double>(n);
  };
  const auto P = static_cast<double>(t.packets);
  const auto PK = static_cast<double>(t.kernel_pkts);
  const auto E = static_cast<double>(t.events);
  const double traced_ns_per_pkt = ratio(static_cast<double>(t.wall_ns), P);

  auto add = [&rep](const char* name, double value, const char* unit) {
    rep.metrics.push_back(Metric{name, value, unit});
  };
  auto d = [](auto v) { return static_cast<double>(v); };
  const bool matching = spec.app == AppKind::kMatch;
  const bool exporting = spec.app == AppKind::kExport;
  const double kernel_ns = sharded ? d(t.worker_kernel_cpu_ns)
                                   : self(Layer::kKernelBatch);
  const double kernel_allocs = sharded ? d(t.worker_kernel_allocs)
                                       : allocs_self(Layer::kKernelBatch);
  add("nic.receive_ns_per_pkt", ratio(self(Layer::kNicReceive), P), "ns/pkt");
  add("nic.fdir_drop_ratio", ratio(d(t.nic_drops), P), "ratio");
  add("nic.fdir_install_fail_ratio",
      ratio(d(t.fdir_failed), d(t.fdir_ok + t.fdir_failed)), "ratio");
  add("kernel.batch_ns_per_pkt", ratio(kernel_ns, PK), "ns/pkt");
  add("kernel.allocs_per_pkt", ratio(kernel_allocs, PK), "allocs/pkt");
  add("kernel.chunks_per_kpkt", ratio(1000.0 * d(t.chunks), PK), "count/kpkt");
  add("kernel.streams_created_per_kpkt", ratio(1000.0 * d(t.created), PK),
      "count/kpkt");
  add("kernel.pool_recycle_ratio", ratio(d(t.recycled), d(t.created)),
      "ratio");
  add("kernel.cutoff_discard_ratio", ratio(d(t.cutoff), PK), "ratio");
  add("scap.dispatch_ns_per_event", ratio(self(Layer::kDrain), E), "ns/event");
  add("scap.allocs_per_event", ratio(allocs_self(Layer::kDrain), E),
      "allocs/event");
  add("match.scan_ns_per_byte",
      matching ? ratio(self(Layer::kMatchScan), d(t.scanned_bytes)) : 0.0,
      "ns/B");
  add("match.matches_per_planted",
      matching ? ratio(d(t.matches), d(t.planted)) : 0.0, "ratio");
  add("export.encode_ns_per_record",
      exporting ? ratio(self(Layer::kExportEncode), d(t.records)) : 0.0,
      "ns/record");
  add("shard.submit_ns_per_pkt", ratio(self(Layer::kShardSubmit), P),
      "ns/pkt");
  add("shard.worker_cpu_ns_per_pkt", ratio(d(t.worker_cpu_ns), P), "ns/pkt");
  add("shard.imbalance", median(t.imbalance), "ratio");
  add("shard.flush_ms", median(t.flush_ms), "ms");
  add("shard.ring_occupancy_peak", median(t.ring_peak), "slots");
  const double overhead =
      untraced_ns_per_pkt > 0
          ? (traced_ns_per_pkt / untraced_ns_per_pkt - 1.0) * 100.0
          : 0.0;
  add("trace.overhead_pct", overhead, "%");
  // Producer-thread time no span covers (loop and timer overhead).
  const double attributed = static_cast<double>(log.attributed_ns());
  const double unattributed =
      t.wall_ns > 0 ? (static_cast<double>(t.wall_ns) - attributed) * 100.0 /
                          static_cast<double>(t.wall_ns)
                    : 0.0;
  add("trace.unattributed_pct", unattributed, "%");

  // Consistency: the producer's layer self times, per packet, against the
  // untraced ns/pkt; the difference should stay within the tracing
  // overhead. Reported, never hidden, and never a failure by itself.
  char buf[512];
  const double self_sum = ratio(attributed, P);
  const double gap =
      untraced_ns_per_pkt > 0
          ? (self_sum / untraced_ns_per_pkt - 1.0) * 100.0
          : 0.0;
  std::snprintf(buf, sizeof(buf),
                "consistency: layer self times sum to %.1f ns/pkt, untraced "
                "%.1f ns/pkt, gap %+.1f%% vs trace overhead %+.1f%% -> %s",
                self_sum, untraced_ns_per_pkt, gap, overhead,
                std::abs(gap) <= std::abs(overhead) + 1.0 ? "within"
                                                          : "GAP");
  rep.notes.emplace_back(buf);
  for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kCount); ++l) {
    const auto layer = static_cast<Layer>(l);
    const double s = self(layer);
    if (s <= 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "  %-20s self %9.1f ns/pkt  allocs %.4f/pkt  spans %.0f",
                  layer_name(layer), s / P, allocs_self(layer) / P,
                  spans(layer));
    rep.notes.emplace_back(buf);
  }
  if (sharded) {
    std::snprintf(buf, sizeof(buf),
                  "  workers: %.1f ns/pkt CPU, of which %.1f outside the "
                  "drain hook (ring pop, handle_batch, maintenance)",
                  ratio(d(t.worker_cpu_ns), P),
                  ratio(d(t.worker_kernel_cpu_ns), P));
    rep.notes.emplace_back(buf);
  }

  // Chrome trace_event dump of the kept spans.
  std::string& out = rep.chrome_json;
  out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  log.write_chrome(out, first, t_start);
  for (const auto& wl : worker_logs) wl->write_chrome(out, first, t_start);
  out += "\n]}\n";
  return rep;
}

}  // namespace perfbench
