// scap_trace — reader for the compact binary trace format ("SCTR") that
// scap_dump_trace / chaos_run --trace-out emit (DESIGN.md §10).
//
//   scap_trace summary  trace.sctr          header, per-type counts, hists
//   scap_trace events   trace.sctr [--limit N]
//   scap_trace streams  trace.sctr [--stream ID] [--limit N]
//   scap_trace chrome   trace.sctr --out trace.json
//
// `streams` groups the timeline by stream id and prints each stream's
// lifecycle (creation → chunks → termination) with relative timestamps —
// the per-stream view the paper's evaluation reasons about.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace {

using scap::trace::BinaryTrace;
using scap::trace::Log2Histogram;
using scap::trace::Schema;
using scap::trace::TraceEvent;
using scap::trace::TraceEventType;

/// True for event types whose `stream` field names a stream.
bool stream_scoped(TraceEventType t) {
  switch (t) {
    case TraceEventType::kPacketVerdict:
    case TraceEventType::kStreamCreated:
    case TraceEventType::kChunkDelivered:
    case TraceEventType::kStreamTerminated:
    case TraceEventType::kFdirInstall:
    case TraceEventType::kFdirEvict:
    case TraceEventType::kNicSteer:
    case TraceEventType::kNicDrop:
    case TraceEventType::kEventDispatched:
      return true;
    case TraceEventType::kPplWatermark:
    case TraceEventType::kPplCutoffChange:
    case TraceEventType::kMaintenanceTick:
    case TraceEventType::kRingShed:
    case TraceEventType::kWorkerStall:
      return false;
  }
  return false;
}

bool load(const char* path, BinaryTrace* trace) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "scap_trace: cannot open %s\n", path);
    return false;
  }
  std::string error;
  if (!scap::trace::read_binary(in, trace, &error)) {
    std::fprintf(stderr, "scap_trace: %s: %s\n", path, error.c_str());
    return false;
  }
  return true;
}

void print_hist(const char* name, const Log2Histogram& hist) {
  std::printf("  %-18s total=%" PRIu64 "\n", name, hist.total());
  for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
    if (hist.count(i) == 0) continue;
    const std::uint64_t lo = Log2Histogram::bucket_floor(i);
    if (i + 1 < Log2Histogram::kBuckets) {
      const std::uint64_t hi = Log2Histogram::bucket_floor(i + 1) - 1;
      std::printf("    [%10" PRIu64 ", %10" PRIu64 "] %" PRIu64 "\n", lo, hi,
                  hist.count(i));
    } else {
      std::printf("    [%10" PRIu64 ",        inf] %" PRIu64 "\n", lo,
                  hist.count(i));
    }
  }
}

int cmd_summary(const BinaryTrace& trace) {
  std::printf("cores=%u events=%zu dropped=%" PRIu64 "\n", trace.cores,
              trace.events.size(), trace.dropped);
  std::uint64_t by_type[scap::trace::kNumTraceEventTypes] = {};
  for (const TraceEvent& ev : trace.events) {
    ++by_type[static_cast<std::size_t>(ev.type)];
  }
  for (std::size_t i = 0; i < scap::trace::kNumTraceEventTypes; ++i) {
    if (by_type[i] == 0) continue;
    std::printf("  %-18s %" PRIu64 "\n",
                scap::trace::to_string(static_cast<TraceEventType>(i)),
                by_type[i]);
  }
  std::printf("histograms:\n");
  print_hist("stream_size_bytes", trace.metrics.stream_size_bytes);
  print_hist("chunk_latency_us", trace.metrics.chunk_latency_us);
  print_hist("flow_probe_len", trace.metrics.flow_probe_len);
  print_hist("queue_occupancy", trace.metrics.queue_occupancy);
  return 0;
}

int cmd_events(const BinaryTrace& trace, const Schema& schema,
               std::size_t limit) {
  std::size_t printed = 0;
  for (const TraceEvent& ev : trace.events) {
    if (printed++ >= limit) break;
    std::printf("%s\n", scap::trace::format_event(ev, schema).c_str());
  }
  if (trace.events.size() > printed) {
    std::printf("... %zu more (raise --limit)\n",
                trace.events.size() - printed);
  }
  return 0;
}

int cmd_streams(const BinaryTrace& trace, const Schema& schema,
                std::uint64_t only_stream, std::size_t limit) {
  // std::map: stream timelines print in id order, deterministically.
  std::map<std::uint64_t, std::vector<const TraceEvent*>> by_stream;
  for (const TraceEvent& ev : trace.events) {
    if (!stream_scoped(ev.type) || ev.stream == 0) continue;
    if (only_stream != 0 && ev.stream != only_stream) continue;
    by_stream[ev.stream].push_back(&ev);
  }
  if (by_stream.empty()) {
    std::printf("no stream-scoped events%s\n",
                only_stream != 0 ? " for that stream id" : "");
    return only_stream != 0 ? 1 : 0;
  }
  for (const auto& [id, events] : by_stream) {
    const std::int64_t t0 = events.front()->ts_ns;
    std::printf("stream %" PRIu64 " (%zu events, first at %" PRId64 " ns)\n",
                id, events.size(), t0);
    std::size_t printed = 0;
    for (const TraceEvent* ev : events) {
      if (printed++ >= limit) {
        std::printf("  ... %zu more\n", events.size() - limit);
        break;
      }
      std::printf("  +%-10" PRId64 " %s\n", ev->ts_ns - t0,
                  scap::trace::format_event(*ev, schema).c_str());
    }
  }
  return 0;
}

int cmd_chrome(const BinaryTrace& trace, const Schema& schema,
               const char* out_path) {
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "scap_trace: cannot open %s\n", out_path);
    return 1;
  }
  // Same shape as trace::write_chrome_json, fed from the loaded file.
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : trace.events) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << scap::trace::to_string(ev.type)
        << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":"
        << static_cast<int>(ev.core) << ",\"ts\":" << ev.ts_ns / 1000
        << ",\"args\":{\"detail\":\""
        << scap::trace::format_event(ev, schema) << "\"}}";
  }
  out << "]}\n";
  std::printf("wrote %zu events to %s\n", trace.events.size(), out_path);
  return out.good() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: scap_trace <summary|events|streams|chrome> FILE\n"
               "                  [--stream ID] [--limit N] [--out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const char* path = argv[2];
  std::uint64_t only_stream = 0;
  std::size_t limit = 50;
  const char* out_path = nullptr;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stream") == 0 && i + 1 < argc) {
      only_stream = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--limit") == 0 && i + 1 < argc) {
      limit = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return usage();
    }
  }

  BinaryTrace trace;
  if (!load(path, &trace)) return 1;
  const Schema& schema = scap::trace::kernel_schema();

  if (cmd == "summary") return cmd_summary(trace);
  if (cmd == "events") return cmd_events(trace, schema, limit);
  if (cmd == "streams") return cmd_streams(trace, schema, only_stream, limit);
  if (cmd == "chrome") {
    if (out_path == nullptr) return usage();
    return cmd_chrome(trace, schema, out_path);
  }
  return usage();
}
