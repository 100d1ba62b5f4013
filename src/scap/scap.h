// The Scap C API — the exact surface of Table 1 in the paper.
//
// This is a thin C-style veneer over scap::Capture so that the paper's code
// listings (§3.3) compile nearly verbatim. An application:
//
//   scap_t *sc = scap_create("file:trace.pcap", SCAP_DEFAULT,
//                            SCAP_TCP_FAST, 0);
//   scap_set_cutoff(sc, 0);
//   scap_dispatch_termination(sc, stream_close);
//   scap_start_capture(sc);   // replays the device/source to completion
//   scap_close(sc);
//
// Device strings:
//   "file:<path>"  — replay a pcap savefile through the capture
//   anything else  — a named virtual interface; feed it packets with
//                    scap_inject() (used by tests, examples and benches)
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernel/stats_determinism.hpp"

namespace scap {
class Capture;
class StreamView;
class Packet;
}  // namespace scap

// Opaque handles (C-style API; C++ linkage).
using scap_t = scap::Capture;
using stream_t = scap::StreamView;

// --- constants ---------------------------------------------------------------

constexpr std::int64_t SCAP_DEFAULT = 512ll * 1024 * 1024;  // memory_size

// Reassembly modes (scap_create).
constexpr int SCAP_TCP_FAST = 0;
constexpr int SCAP_TCP_STRICT = 1;
constexpr int SCAP_NONE = 2;

// Directions (scap_add_cutoff_direction).
constexpr int SCAP_DIR_ORIG = 0;
constexpr int SCAP_DIR_REPLY = 1;

// Parameters (scap_set_parameter / scap_set_stream_parameter).
constexpr int SCAP_PARAM_INACTIVITY_TIMEOUT_MS = 0;
constexpr int SCAP_PARAM_CHUNK_SIZE = 1;
constexpr int SCAP_PARAM_OVERLAP_SIZE = 2;
constexpr int SCAP_PARAM_FLUSH_TIMEOUT_MS = 3;
constexpr int SCAP_PARAM_BASE_THRESHOLD_PCT = 4;
constexpr int SCAP_PARAM_OVERLOAD_CUTOFF = 5;
constexpr int SCAP_PARAM_PRIORITY_LEVELS = 6;
// Adaptive overload control (extension, DESIGN.md §8): value > 0 enables
// the EWMA/hysteresis controller with that starting cutoff; 0 disables.
constexpr int SCAP_PARAM_ADAPTIVE_CUTOFF = 7;
constexpr int SCAP_PARAM_ADAPTIVE_MIN_CUTOFF = 8;
// Multi-core sharded datapath (DESIGN.md §12), pre-start only: worker
// count (0 = one shard driven by the injecting thread, callbacks before
// scap_inject returns) and per-shard SPSC ring slots (with workers).
constexpr int SCAP_PARAM_WORKERS = 9;
constexpr int SCAP_PARAM_RING_CAPACITY = 10;
// Overload/failure robustness of the sharded datapath (DESIGN.md §13),
// pre-start only: watermark ring admission as a percentage of ring capacity
// (high = 0 disables admission shedding; low is the hysteresis exit and the
// base of the per-priority shed ladder), the worker-stall watchdog deadline
// in simulated milliseconds (0 disables), and the stall policy (0 = fatal
// assert, 1 = degrade: shed the stalled shard's traffic, keep the rest).
constexpr int SCAP_PARAM_RING_HIGH_WM = 11;
constexpr int SCAP_PARAM_RING_LOW_WM = 12;
constexpr int SCAP_PARAM_STALL_TIMEOUT = 13;
constexpr int SCAP_PARAM_STALL_POLICY = 14;

// Stream status values (scap_stream_status).
constexpr int SCAP_STREAM_ACTIVE = 0;
constexpr int SCAP_STREAM_CLOSED_FIN = 1;
constexpr int SCAP_STREAM_CLOSED_RST = 2;
constexpr int SCAP_STREAM_CLOSED_TIMEOUT = 3;

// --- structs -----------------------------------------------------------------

/// Packet header handed back by scap_next_stream_packet.
struct scap_pkthdr {
  std::int64_t ts_us;      // capture timestamp (microseconds)
  std::uint32_t caplen;    // payload bytes available
  std::uint32_t wirelen;   // payload bytes on the wire
  std::uint32_t seq;       // raw TCP sequence (0 for UDP)
  std::uint8_t tcp_flags;
};

// Fixed-size mirrors of the kernel's per-reason arrays. Sized generously so
// adding a decode-error reason or verdict does not break the C ABI; unused
// tail entries are zero. Each is the c_capacity of its counter-table row,
// and capi.cpp static_asserts that the kernel array fits.
constexpr std::size_t SCAP_MAX_PARSE_ERRORS = 16;
constexpr std::size_t SCAP_MAX_VERDICTS = 16;

// Trace export formats (scap_dump_trace).
constexpr int SCAP_TRACE_FORMAT_TEXT = 0;    // stable text (golden files)
constexpr int SCAP_TRACE_FORMAT_CHROME = 1;  // Chrome trace_event JSON
constexpr int SCAP_TRACE_FORMAT_BINARY = 2;  // compact "SCTR" (scap_trace)

/// Log2 histogram mirror (scap_get_stats): bucket 0 holds the value 0,
/// bucket i holds [2^(i-1), 2^i), the last bucket is the overflow
/// catch-all. Matches scap::trace::Log2Histogram::kBuckets (static_assert
/// in capi.cpp).
constexpr std::size_t SCAP_HIST_BUCKETS = 32;
struct scap_hist_t {
  std::uint64_t total;  // == sum of buckets (histogram conservation law)
  std::uint64_t buckets[SCAP_HIST_BUCKETS];
};

/// Aggregate statistics (scap_get_stats).
///
/// The first block holds the paper's aggregates (Table 1). The second
/// mirrors every KernelStats counter under its own name, generated from the
/// counter table (kernel/stats_determinism.inc, which documents each row)
/// — the counter-conservation law (DESIGN.md §9) demands that a packet
/// entering the kernel is visible in exactly one bucket of this struct.
/// One mirrored field differs from its kernel counter: pkts_seen also
/// counts the packets FDIR dropped at the NIC (pkts_filtered_nic).
struct scap_stats_t {
  std::uint64_t pkts_dropped;      // PPL + memory exhaustion
  std::uint64_t bytes_dropped;
  std::uint64_t pkts_discarded;    // cutoff + duplicates + filter
  std::uint64_t pkts_filtered_nic; // dropped at the NIC by FDIR (subzero)
  std::uint64_t pkts_parse_error;  // undecodable input (== pkts_invalid)

  // --- kernel counter mirror ------------------------------------------------
#define SCAP_STATS_FIELD(name, combine, determinism) \
  scap::kernel::StatCell<scap::kernel::StatCombine::combine>::type name;
#define SCAP_STATS_ARRAY(name, combine, determinism, kernel_size, c_capacity) \
  scap::kernel::StatCell<scap::kernel::StatCombine::combine>::type            \
      name[c_capacity];
#include "kernel/stats_determinism.inc"

  // --- tracing (zero unless scap_enable_trace was called) -------------------
  std::uint64_t trace_events_recorded;
  std::uint64_t trace_events_dropped;   // lost to trace-ring wrap
  scap_hist_t hist_stream_size_bytes;   // per terminated stream
  scap_hist_t hist_chunk_latency_us;    // first segment -> delivery
  scap_hist_t hist_flow_probe_len;      // flow-table slots probed per lookup
  scap_hist_t hist_queue_occupancy;     // event-queue depth at maintenance
};

// --- socket lifecycle ----------------------------------------------------------

// Returns nullptr for an unknown reassembly mode.
scap_t* scap_create(const char* device, std::int64_t memory_size,
                    int reassembly_mode, int need_pkts);
void scap_close(scap_t* sc);

// --- configuration --------------------------------------------------------------

int scap_set_filter(scap_t* sc, const char* bpf_filter);
int scap_set_cutoff(scap_t* sc, std::int64_t cutoff);
int scap_add_cutoff_direction(scap_t* sc, std::int64_t cutoff, int direction);
int scap_add_cutoff_class(scap_t* sc, std::int64_t cutoff,
                          const char* bpf_filter);
int scap_set_worker_threads(scap_t* sc, int thread_num);
// Returns -1, changing nothing, for an unknown parameter id.
int scap_set_parameter(scap_t* sc, int parameter, std::int64_t value);

// --- handlers ---------------------------------------------------------------------

int scap_dispatch_creation(scap_t* sc, void (*handler)(stream_t* sd));
int scap_dispatch_data(scap_t* sc, void (*handler)(stream_t* sd));
int scap_dispatch_termination(scap_t* sc, void (*handler)(stream_t* sd));

// --- capture ----------------------------------------------------------------------

/// For "file:<path>" devices: replays the file to completion, dispatching
/// callbacks, then flushes. For virtual devices: prepares the capture;
/// feed it with scap_inject and finish with scap_flush.
int scap_start_capture(scap_t* sc);

/// Feed one packet into a virtual-device capture (extension; the kernel
/// module receives packets from the driver in the real system).
int scap_inject(scap_t* sc, const scap::Packet& pkt);

/// Flush remaining streams and dispatch their final events.
int scap_flush(scap_t* sc);

// --- per-stream operations (valid inside handlers) -----------------------------------

void scap_discard_stream(scap_t* sc, stream_t* sd);
int scap_set_stream_cutoff(scap_t* sc, stream_t* sd, std::int64_t cutoff);
int scap_set_stream_priority(scap_t* sc, stream_t* sd, int priority);
int scap_set_stream_parameter(scap_t* sc, stream_t* sd, int parameter,
                              std::int64_t value);
int scap_keep_stream_chunk(scap_t* sc, stream_t* sd);

/// Stream data access (sd->data / sd->data_len in the paper). The chunk
/// bytes (and the payloads scap_next_stream_packet returns) are valid only
/// until the handler returns: the chunk's buffer then goes back to the
/// capture's free lists and is reused for later chunks. Copy what must
/// outlive the handler, or call scap_keep_stream_chunk to have the chunk
/// delivered again, together with the next one.
const std::uint8_t* scap_stream_data(const stream_t* sd);
std::size_t scap_stream_data_len(const stream_t* sd);
int scap_stream_status(const stream_t* sd);
std::uint32_t scap_stream_error(const stream_t* sd);

/// Per-packet delivery: returns payload pointer and fills `h`, or nullptr
/// when the chunk has no more packets.
const std::uint8_t* scap_next_stream_packet(stream_t* sd, scap_pkthdr* h);

// --- statistics -------------------------------------------------------------------

int scap_get_stats(scap_t* sc, scap_stats_t* stats);

// --- tracing (extension, DESIGN.md §10) --------------------------------------------

/// Enable per-core event tracing with `ring_capacity` retained events per
/// core. Must be called before scap_start_capture.
int scap_enable_trace(scap_t* sc, std::size_t ring_capacity);

/// Write the captured trace to `path` in one of the SCAP_TRACE_FORMAT_*
/// formats. Call after the capture has quiesced (scap_flush / replay done).
int scap_dump_trace(scap_t* sc, const char* path, int format);
