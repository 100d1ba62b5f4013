#include "scap/scap.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>

#include "scap/capture.hpp"
#include "trace/export.hpp"

namespace {

// The C constants map one to one; an unknown value is rejected, never
// remapped to some default.
std::optional<scap::kernel::ReassemblyMode> mode_of(int m) {
  switch (m) {
    case SCAP_TCP_FAST: return scap::kernel::ReassemblyMode::kTcpFast;
    case SCAP_TCP_STRICT: return scap::kernel::ReassemblyMode::kTcpStrict;
    case SCAP_NONE: return scap::kernel::ReassemblyMode::kNone;
    default: return std::nullopt;
  }
}

std::optional<scap::Parameter> param_of(int p) {
  switch (p) {
    case SCAP_PARAM_INACTIVITY_TIMEOUT_MS:
      return scap::Parameter::kInactivityTimeoutMs;
    case SCAP_PARAM_CHUNK_SIZE: return scap::Parameter::kChunkSize;
    case SCAP_PARAM_OVERLAP_SIZE: return scap::Parameter::kOverlapSize;
    case SCAP_PARAM_FLUSH_TIMEOUT_MS: return scap::Parameter::kFlushTimeoutMs;
    case SCAP_PARAM_BASE_THRESHOLD_PCT:
      return scap::Parameter::kBaseThresholdPercent;
    case SCAP_PARAM_OVERLOAD_CUTOFF: return scap::Parameter::kOverloadCutoff;
    case SCAP_PARAM_PRIORITY_LEVELS: return scap::Parameter::kPriorityLevels;
    case SCAP_PARAM_ADAPTIVE_CUTOFF: return scap::Parameter::kAdaptiveCutoff;
    case SCAP_PARAM_ADAPTIVE_MIN_CUTOFF:
      return scap::Parameter::kAdaptiveMinCutoff;
    case SCAP_PARAM_WORKERS: return scap::Parameter::kWorkerThreads;
    case SCAP_PARAM_RING_CAPACITY:
      return scap::Parameter::kShardRingCapacity;
    case SCAP_PARAM_RING_HIGH_WM:
      return scap::Parameter::kRingHighWatermarkPct;
    case SCAP_PARAM_RING_LOW_WM:
      return scap::Parameter::kRingLowWatermarkPct;
    case SCAP_PARAM_STALL_TIMEOUT:
      return scap::Parameter::kStallTimeoutMs;
    case SCAP_PARAM_STALL_POLICY:
      return scap::Parameter::kStallPolicy;
    default: return std::nullopt;
  }
}

bool is_file_device(const std::string& device) {
  return device.rfind("file:", 0) == 0;
}

void copy_hist(scap_hist_t& out, const scap::trace::Log2Histogram& in) {
  out.total = in.total();
  for (std::size_t i = 0; i < SCAP_HIST_BUCKETS; ++i) {
    out.buckets[i] = in.count(i);
  }
}

}  // namespace

scap_t* scap_create(const char* device, std::int64_t memory_size,
                    int reassembly_mode, int need_pkts) {
  const auto mode = mode_of(reassembly_mode);
  if (!mode) return nullptr;
  try {
    return new scap::Capture(device ? device : "",
                             memory_size > 0
                                 ? static_cast<std::uint64_t>(memory_size)
                                 : static_cast<std::uint64_t>(SCAP_DEFAULT),
                             *mode, need_pkts != 0);
  } catch (...) {
    return nullptr;
  }
}

void scap_close(scap_t* sc) {
  if (sc == nullptr) return;
  if (sc->started()) sc->stop();
  delete sc;
}

int scap_set_filter(scap_t* sc, const char* bpf_filter) {
  if (sc == nullptr || bpf_filter == nullptr) return -1;
  try {
    sc->set_filter(bpf_filter);
    return 0;
  } catch (...) {
    return -1;
  }
}

int scap_set_cutoff(scap_t* sc, std::int64_t cutoff) {
  if (sc == nullptr) return -1;
  sc->set_cutoff(cutoff);
  return 0;
}

int scap_add_cutoff_direction(scap_t* sc, std::int64_t cutoff, int direction) {
  if (sc == nullptr || direction < 0 || direction > 1) return -1;
  sc->add_cutoff_direction(cutoff,
                           static_cast<scap::kernel::Direction>(direction));
  return 0;
}

int scap_add_cutoff_class(scap_t* sc, std::int64_t cutoff,
                          const char* bpf_filter) {
  if (sc == nullptr || bpf_filter == nullptr) return -1;
  try {
    sc->add_cutoff_class(cutoff, bpf_filter);
    return 0;
  } catch (...) {
    return -1;
  }
}

int scap_set_worker_threads(scap_t* sc, int thread_num) {
  if (sc == nullptr || thread_num < 0) return -1;
  sc->set_worker_threads(thread_num);
  return 0;
}

int scap_set_parameter(scap_t* sc, int parameter, std::int64_t value) {
  const auto p = param_of(parameter);
  if (sc == nullptr || !p) return -1;
  return sc->set_parameter(*p, value) ? 0 : -1;
}

namespace {
// Adapters from C function pointers to std::function handlers.
scap::StreamHandler wrap(void (*handler)(stream_t*)) {
  if (handler == nullptr) return nullptr;
  return [handler](scap::StreamView& sd) { handler(&sd); };
}
}  // namespace

int scap_dispatch_creation(scap_t* sc, void (*handler)(stream_t* sd)) {
  if (sc == nullptr) return -1;
  sc->dispatch_creation(wrap(handler));
  return 0;
}

int scap_dispatch_data(scap_t* sc, void (*handler)(stream_t* sd)) {
  if (sc == nullptr) return -1;
  sc->dispatch_data(wrap(handler));
  return 0;
}

int scap_dispatch_termination(scap_t* sc, void (*handler)(stream_t* sd)) {
  if (sc == nullptr) return -1;
  sc->dispatch_termination(wrap(handler));
  return 0;
}

int scap_start_capture(scap_t* sc) {
  if (sc == nullptr) return -1;
  try {
    sc->start();
    // File devices replay to completion and flush; virtual devices stay
    // open for scap_inject.
    if (is_file_device(sc->device())) {
      sc->replay_pcap(sc->device().substr(5));
      sc->stop();
    }
    return 0;
  } catch (...) {
    return -1;
  }
}

int scap_inject(scap_t* sc, const scap::Packet& pkt) {
  if (sc == nullptr) return -1;
  sc->inject(pkt);
  return 0;
}

int scap_flush(scap_t* sc) {
  if (sc == nullptr) return -1;
  sc->stop();
  return 0;
}

void scap_discard_stream(scap_t* sc, stream_t* sd) {
  if (sc == nullptr || sd == nullptr) return;
  sd->discard();
}

int scap_set_stream_cutoff(scap_t* sc, stream_t* sd, std::int64_t cutoff) {
  if (sc == nullptr || sd == nullptr) return -1;
  sd->set_cutoff(cutoff);
  return 0;
}

int scap_set_stream_priority(scap_t* sc, stream_t* sd, int priority) {
  if (sc == nullptr || sd == nullptr) return -1;
  sd->set_priority(priority);
  return 0;
}

int scap_set_stream_parameter(scap_t* sc, stream_t* sd, int parameter,
                              std::int64_t value) {
  const auto p = param_of(parameter);
  if (sc == nullptr || sd == nullptr || !p) return -1;
  return sd->set_parameter(*p, value) ? 0 : -1;
}

int scap_keep_stream_chunk(scap_t* sc, stream_t* sd) {
  if (sc == nullptr || sd == nullptr) return -1;
  sd->keep_chunk();
  return 0;
}

const std::uint8_t* scap_stream_data(const stream_t* sd) {
  return sd == nullptr || sd->data().empty() ? nullptr : sd->data().data();
}

std::size_t scap_stream_data_len(const stream_t* sd) {
  return sd == nullptr ? 0 : sd->data_len();
}

int scap_stream_status(const stream_t* sd) {
  if (sd == nullptr) return -1;
  switch (sd->status()) {
    case scap::kernel::StreamStatus::kActive: return SCAP_STREAM_ACTIVE;
    case scap::kernel::StreamStatus::kClosedFin: return SCAP_STREAM_CLOSED_FIN;
    case scap::kernel::StreamStatus::kClosedRst: return SCAP_STREAM_CLOSED_RST;
    case scap::kernel::StreamStatus::kClosedTimeout:
      return SCAP_STREAM_CLOSED_TIMEOUT;
  }
  return -1;
}

std::uint32_t scap_stream_error(const stream_t* sd) {
  return sd == nullptr ? 0 : sd->error();
}

const std::uint8_t* scap_next_stream_packet(stream_t* sd, scap_pkthdr* h) {
  if (sd == nullptr) return nullptr;
  const scap::kernel::PacketRecord* rec = sd->next_packet();
  if (rec == nullptr) return nullptr;
  if (h != nullptr) {
    h->ts_us = rec->ts.usec();
    h->caplen = rec->caplen;
    h->wirelen = rec->wirelen;
    h->seq = rec->seq;
    h->tcp_flags = rec->tcp_flags;
  }
  auto payload = sd->packet_payload(*rec);
  return payload.empty() ? nullptr : payload.data();
}

int scap_get_stats(scap_t* sc, scap_stats_t* stats) {
  if (sc == nullptr || stats == nullptr) return -1;
  const scap::CaptureStats s = sc->stats();
  *stats = {};
  const scap::kernel::KernelStats& k = s.kernel;

  // Kernel counter mirror, one assignment per counter-table row.
#define SCAP_STATS_FIELD(name, combine, determinism) stats->name = k.name;
#define SCAP_STATS_ARRAY(name, combine, determinism, kernel_size, c_capacity) \
  static_assert(kernel_size <= c_capacity,                                    \
                #name " outgrew its scap_stats_t capacity");                  \
  std::copy(std::begin(k.name), std::end(k.name), stats->name);
#include "kernel/stats_determinism.inc"

  // The paper's aggregates (Table 1).
  stats->pkts_seen += s.nic_dropped_by_filter;
  stats->pkts_dropped = k.pkts_ppl_dropped + k.pkts_nomem_dropped;
  stats->bytes_dropped = k.bytes_ppl_dropped + k.bytes_nomem_dropped;
  stats->pkts_discarded = k.pkts_cutoff + k.pkts_dup + k.pkts_filtered;
  stats->pkts_filtered_nic = s.nic_dropped_by_filter;
  stats->pkts_parse_error = k.pkts_invalid;

  // Trace metrics mirror. The C ABI histogram is a fixed array, so the
  // bucket counts must line up exactly with the C++ histogram.
  static_assert(SCAP_HIST_BUCKETS == scap::trace::Log2Histogram::kBuckets,
                "scap_hist_t must mirror trace::Log2Histogram bucket-for-bucket");
  stats->trace_events_recorded = s.trace_events_recorded;
  stats->trace_events_dropped = s.trace_events_dropped;
  copy_hist(stats->hist_stream_size_bytes, s.metrics.stream_size_bytes);
  copy_hist(stats->hist_chunk_latency_us, s.metrics.chunk_latency_us);
  copy_hist(stats->hist_flow_probe_len, s.metrics.flow_probe_len);
  copy_hist(stats->hist_queue_occupancy, s.metrics.queue_occupancy);
  return 0;
}

int scap_enable_trace(scap_t* sc, std::size_t ring_capacity) {
  if (sc == nullptr || ring_capacity == 0) return -1;
  try {
    sc->enable_tracing(ring_capacity);
    return 0;
  } catch (...) {
    return -1;  // capture already started
  }
}

int scap_dump_trace(scap_t* sc, const char* path, int format) {
  if (sc == nullptr || path == nullptr) return -1;
  scap::trace::Tracer* tracer = sc->tracer();
  if (tracer == nullptr) return -1;
  std::ofstream out(path, format == SCAP_TRACE_FORMAT_BINARY
                              ? std::ios::binary | std::ios::out
                              : std::ios::out);
  if (!out) return -1;
  const scap::trace::Schema& schema = scap::trace::kernel_schema();
  switch (format) {
    case SCAP_TRACE_FORMAT_TEXT:
      scap::trace::write_text(*tracer, schema, out);
      break;
    case SCAP_TRACE_FORMAT_CHROME:
      scap::trace::write_chrome_json(*tracer, schema, out);
      break;
    case SCAP_TRACE_FORMAT_BINARY:
      scap::trace::write_binary(*tracer, out);
      break;
    default:
      return -1;
  }
  return out.good() ? 0 : -1;
}
