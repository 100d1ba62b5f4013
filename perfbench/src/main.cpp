// Capture benchmark: runs one named workload through scap::Capture and
// prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) as the last stdout line, a JSON object. See perfbench/README.md.
//
//   capture_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--out DIR]
//   capture_bench --selftest [--out DIR]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out = ".";
  bool selftest = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: capture_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n"
               "       capture_bench --selftest [--out DIR]\n"
               "workloads: nids_match flow_export stream_sharded\n");
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--out") {
      a.out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return a.selftest || (!a.workload.empty() && a.seconds > 0 &&
                        (a.trace == 0 || a.trace == 1));
}

constexpr double kWarmupSeconds = 1.0;

/// Capture sessions until `seconds` of wall time have passed.
struct TimedRun {
  std::vector<Session> sessions;
  LatencyHistogram batch_ns;
  double timed_s = 0;
  std::uint64_t packets = 0;
  std::uint64_t lost = 0;
  std::uint64_t traced_packets = 0;
  std::vector<std::string> errors;

  double ns_per_pkt() const {
    return packets ? timed_s * 1e9 / static_cast<double>(packets) : 0.0;
  }
};

/// With `traced`, a traced session follows every timed one, so both halves
/// of the run see the same machine conditions.
TimedRun run_timed(const WorkloadSpec& spec, const flowgen::Trace& trace,
                   const Expected& want, double seconds, TracedRun* traced) {
  TimedRun r;
  // Warm-up sessions (validated, not measured): the first sessions after
  // trace generation pay heap growth and page faults no later one does.
  LatencyHistogram warm_ns;
  const std::int64_t warm = now_ns();
  do {
    const Session s = run_capture_session(spec, trace, want, warm_ns);
    for (const auto& e : s.errors) r.errors.push_back("warm-up: " + e);
  } while (static_cast<double>(now_ns() - warm) / 1e9 < kWarmupSeconds);
  const std::int64_t start = now_ns();
  do {
    Session s = run_capture_session(spec, trace, want, r.batch_ns);
    r.timed_s += s.timed_s;
    r.packets += s.packets;
    r.lost += s.got.lost;
    for (const auto& e : s.errors) {
      r.errors.push_back("session " + std::to_string(r.sessions.size()) +
                         ": " + e);
    }
    r.sessions.push_back(std::move(s));
    if (traced != nullptr) {
      for (const auto& e : traced->session(trace, want)) {
        r.errors.push_back("traced session: " + e);
      }
      r.traced_packets += trace.packets.size();
    }
  } while (static_cast<double>(now_ns() - start) / 1e9 < seconds);
  return r;
}

/// Rates are medians over sessions, so a burst of interference from
/// another process moves a few sessions, not the reported figure.
std::vector<Metric> end_to_end(const WorkloadSpec& spec, const TimedRun& r,
                               double base_rss) {
  std::vector<double> pps, mbps, cpu, allocs, setup;
  double rss = 0;
  for (const Session& s : r.sessions) {
    const auto P = static_cast<double>(s.packets);
    // Useful bytes: stream bytes delivered, or for the flow exporter,
    // which reads no payload, the octets its records account for.
    const auto useful = static_cast<double>(spec.app == AppKind::kExport
                                                ? s.got.record_octets
                                                : s.got.delivered_bytes);
    pps.push_back(P / s.timed_s);
    mbps.push_back(useful / s.timed_s / 1e6);
    cpu.push_back(static_cast<double>(s.cpu_ns) / P);
    allocs.push_back(static_cast<double>(s.allocs) / P);
    setup.push_back(s.setup_s);
    rss = std::max(rss, s.rss_mib - base_rss);
  }
  return {
      {"pkts_per_s", median(pps), "pkt/s"},
      {"delivered_mb_per_s", median(mbps), "MB/s"},
      {"batch_us_p50", r.batch_ns.quantile(0.50) / 1e3, "us"},
      {"batch_us_p99", r.batch_ns.quantile(0.99) / 1e3, "us"},
      {"cpu_ns_per_pkt", median(cpu), "ns/pkt"},
      {"allocs_per_pkt", median(allocs), "allocs/pkt"},
      {"setup_s", median(setup), "s"},
      {"rss_mib", rss, "MiB"},
  };
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary);
  f << body;
  return static_cast<bool>(f);
}

int run_benchmark(const Args& a) {
  WorkloadSpec spec;
  if (!find_workload(a.workload, a.seed, /*tiny=*/false, spec)) {
    return usage();
  }
  std::printf("fingerprint: %s\n", fingerprint_json().c_str());

  const std::int64_t gen_start = now_ns();
  const flowgen::Trace trace = make_trace(spec);
  const Expected want = expected_for(spec, trace);
  std::printf(
      "workload %s seed %llu: %zu packets, %zu flows, %.1f MB payload, "
      "%llu planted (generated in %.2f s)\n",
      spec.name.c_str(), static_cast<unsigned long long>(a.seed),
      trace.packets.size(), trace.flows.size(),
      static_cast<double>(trace.total_payload_bytes) / 1e6,
      static_cast<unsigned long long>(trace.planted_matches),
      static_cast<double>(now_ns() - gen_start) / 1e9);
  trim_heap();
  const double base_rss = rss_mib();

  // Timed sessions, interleaved with traced ones for --trace 1.
  std::unique_ptr<TracedRun> traced;
  if (a.trace) traced = std::make_unique<TracedRun>(spec);
  TimedRun timed = run_timed(spec, trace, want, a.seconds, traced.get());
  std::vector<std::string> errors = timed.errors;
  const std::string self_check =
      validator_self_check(spec, want, timed.sessions.front().got);
  if (!self_check.empty()) errors.push_back(self_check);
  std::printf("%zu sessions, %llu batch samples, loss_pct %.4f\n",
              timed.sessions.size(),
              static_cast<unsigned long long>(timed.batch_ns.count()),
              100.0 * static_cast<double>(timed.lost) /
                  static_cast<double>(timed.packets));

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = end_to_end(spec, timed, base_rss);
    print_table(metrics);
  } else {
    const LayerReport rep = traced->report(timed.ns_per_pkt());
    std::printf("traced: %llu sessions, untraced %.1f ns/pkt\n",
                static_cast<unsigned long long>(rep.sessions),
                timed.ns_per_pkt());
    for (const auto& note : rep.notes) std::printf("%s\n", note.c_str());
    metrics = rep.metrics;
    print_table(metrics);
    const std::string path = a.out + "/spans-" + spec.name + "-" +
                             std::to_string(a.seed) + ".json";
    if (write_file(path, rep.chrome_json)) {
      std::printf("span dump: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    }
  }
  for (const auto& e : errors) {
    std::fprintf(stderr, "VALIDATION: %s\n", e.c_str());
  }
  print_result(errors.empty(), timed.packets + timed.traced_packets,
               timed.lost, metrics);
  return errors.empty() ? 0 : 1;
}

/// Tiny seeds of every workload: each must validate, timed and traced, and
/// the validator must reject perturbed references.
int run_selftest() {
  int failures = 0;
  for (const std::string& name : workload_names()) {
    WorkloadSpec spec;
    find_workload(name, 7, /*tiny=*/true, spec);
    const flowgen::Trace trace = make_trace(spec);
    const Expected want = expected_for(spec, trace);
    LatencyHistogram batch_ns;
    const Session s = run_capture_session(spec, trace, want, batch_ns);
    std::vector<std::string> err = s.errors;
    const std::string self_check = validator_self_check(spec, want, s.got);
    if (!self_check.empty()) err.push_back(self_check);
    TracedRun traced(spec);
    for (const auto& e : traced.session(trace, want)) {
      err.push_back("traced: " + e);
    }
    if (traced.report(1.0).metrics.empty()) err.push_back("no layer metrics");
    if (want.delivered_bytes == 0 && spec.cutoff != 0) {
      err.push_back("tiny trace delivers no bytes");
    }
    std::printf("selftest %-15s %s (%zu packets, %llu bytes, %llu matches, "
                "%llu records)\n",
                name.c_str(), err.empty() ? "PASS" : "FAIL",
                trace.packets.size(),
                static_cast<unsigned long long>(s.got.delivered_bytes),
                static_cast<unsigned long long>(s.got.matches),
                static_cast<unsigned long long>(s.got.records));
    for (const auto& e : err) std::printf("  %s\n", e.c_str());
    failures += err.empty() ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse(argc, argv, a)) return usage();
  if (!release_build()) {
    // Numbers from an unoptimized build are not comparable with anything.
    std::fprintf(stderr, "capture_bench: refusing to run a non-Release build "
                         "(%s)\n", fingerprint_json().c_str());
    return 3;
  }
  try {
    return a.selftest ? run_selftest() : run_benchmark(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "capture_bench: %s\n", e.what());
    return 1;
  }
}
