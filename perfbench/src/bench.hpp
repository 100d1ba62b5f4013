// Shared declarations of the capture benchmark (see perfbench/README.md).
//
// The benchmark drives the public scap::Capture API with generated traffic
// (timed runs) and replays the same per-batch calls Capture makes, module by
// module, with spans around each call (traced runs). Everything here is
// benchmark-side code: the library itself is used exactly as an
// application would use it.
#pragma once

#include <algorithm>
#include <chrono>
#include <memory>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "export/ipfix.hpp"
#include "flowgen/workload.hpp"
#include "match/aho_corasick.hpp"
#include "scap/capture.hpp"

namespace perfbench {

namespace flowgen = scap::flowgen;
namespace match = scap::match;
using scap::Packet;

constexpr std::size_t kBatch = 32;  // packets per inject_batch call
constexpr std::uint64_t kMemorySize = 1ull << 30;  // chunk-buffer accounting

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Log-linear histogram of durations (128 sub-buckets per power of two,
/// under 1 % bucket width). Fixed size, so recording never allocates or
/// grows the resident set the benchmark reports.
class LatencyHistogram {
 public:
  void add(std::uint64_t ns);
  std::uint64_t count() const { return count_; }
  /// The q-quantile in ns, interpolated within its bucket.
  double quantile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static std::size_t index(std::uint64_t ns);
  std::vector<std::uint64_t> buckets_ =
      std::vector<std::uint64_t>(kSub + (64 - kSubBits) * kSub);
  std::uint64_t count_ = 0;
};

// --- allocation counter (alloc_count.cpp) ----------------------------------
std::uint64_t allocs_total();   // every operator new in the process
std::uint64_t allocs_thread();  // operator new calls on the calling thread

// --- machine / process probes (sysinfo.cpp) ---------------------------------
std::string fingerprint_json();   // nproc, CPU, compiler, build, SCAP_TRACE
bool release_build();             // built as Release with NDEBUG
double rss_mib();                 // current VmRSS
void trim_heap();                 // hand freed heap pages back to the OS
std::int64_t process_cpu_ns();    // CPU time of all threads
std::vector<int> task_ids();      // /proc/self/task entries
std::int64_t task_cpu_ns(int tid);  // on-CPU time of one thread

// --- workloads (workload.cpp) -----------------------------------------------
enum class AppKind { kMatch, kExport, kDigest };

struct WorkloadSpec {
  std::string name;
  flowgen::WorkloadConfig gen;
  std::int64_t cutoff = -1;  // -1: no cutoff
  bool fdir = false;
  int workers = 0;  // 0: inline Capture
  AppKind app = AppKind::kDigest;
  /// A session replays the generated trace this many times, each pass on
  /// shifted addresses and later timestamps (distinct flows, shared frames).
  int passes = 1;
};

/// The named workload at `seed`; `tiny` shrinks it for the self-test.
bool find_workload(const std::string& name, std::uint64_t seed, bool tiny,
                   WorkloadSpec& out);
const std::vector<std::string>& workload_names();

/// The packets one capture session replays (generation is never timed).
flowgen::Trace make_trace(const WorkloadSpec& spec);

/// Pattern set of the NIDS workload (2120 VRT-like content strings).
const std::vector<std::string>& vrt_patterns();

/// Directional stream key: the 5-tuple of the packets carrying its bytes.
struct TupleKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  explicit TupleKey(const scap::FiveTuple& t);
  TupleKey() = default;
  std::uint64_t hash() const;
  friend bool operator==(const TupleKey&, const TupleKey&) = default;
};

/// Order-sensitive digest of one directional byte stream. Position-keyed
/// 8-byte words make it independent of where chunk boundaries fall.
class StreamDigest {
 public:
  void fold(std::span<const std::uint8_t> data);
  std::uint64_t bytes() const { return bytes_; }
  /// Final value, keyed by the stream so equal contents on two different
  /// streams do not cancel when streams are combined.
  std::uint64_t finish(const TupleKey& key) const;

 private:
  std::uint64_t bytes_ = 0;
  std::uint64_t acc_ = 0;
  std::uint64_t word_ = 0;  // pending bytes of the current word
};

/// What the application must have received: derived from the generated
/// packets alone, never from the library.
struct Expected {
  std::uint64_t packets = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t delivered_streams = 0;  // directional streams with payload
  std::uint64_t digest = 0;             // order-independent stream combine
  std::uint64_t matches = 0;            // planted patterns (kMatch only)
};

Expected expected_for(const WorkloadSpec& spec, const flowgen::Trace& trace);

/// What one capture session observed.
struct Observed {
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_accounted = 0;  // kernel pkts_seen + NIC drops
  std::uint64_t lost = 0;               // PPL, no-mem, no-record, ring shed
  std::uint64_t delivered_bytes = 0;
  std::uint64_t delivered_streams = 0;
  std::uint64_t digest = 0;
  std::uint64_t matches = 0;
  std::uint64_t records = 0;            // exported flow records
  std::uint64_t record_octets = 0;      // octets the records account for
  std::uint64_t streams_created = 0;
  bool ipfix_roundtrip = true;
  std::string invariants;               // Capture::check_invariants()
};

/// The library-side half of Observed, from the capture's counters.
Observed observe(const scap::kernel::KernelStats& k, std::uint64_t nic_drops,
                 std::uint64_t offered, std::string invariants);

/// Every ground-truth check for `spec`; empty when the session is correct.
std::vector<std::string> validate(const WorkloadSpec& spec,
                                  const Expected& want, const Observed& got);

/// Proves validate() rejects perturbed references (a flipped digest byte,
/// a match count off by one). Returns "" when it does.
std::string validator_self_check(const WorkloadSpec& spec,
                                 const Expected& want, const Observed& got);

// --- spans (spans.cpp) -----------------------------------------------------
/// Layers a span can belong to. Self time is a span's duration minus the
/// part of it its child spans cover.
enum class Layer : std::uint8_t {
  kBatch,        // one inject_batch-equivalent (root)
  kNicReceive,   // Nic::receive over the batch
  kKernelBatch,  // ScapKernel::handle_batch
  kDrain,        // event pop + dispatch + release_chunk
  kHandler,      // application callback
  kMatchScan,    // AhoCorasick::scan_stream
  kExportEncode, // IpfixWriter::encode
  kShardSubmit,  // KernelShards::submit_to (+ in-band ticks)
  kStop,         // end-of-capture flush/terminate + final drain
  kCount,
};
const char* layer_name(Layer l);

struct LayerTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t spans = 0;
  std::uint64_t allocs_self = 0;  // allocations not inside a child span
};

/// Per-thread span recorder. Spans stay in memory; a bounded prefix is kept
/// verbatim for the Chrome trace dump, every span feeds the totals.
class SpanLog {
 public:
  SpanLog(int tid, std::size_t keep);
  void begin(Layer l, std::uint64_t batch);
  void end();
  const LayerTotals& totals(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }
  std::int64_t attributed_ns() const;  // sum of self times
  void write_chrome(std::string& out, bool& first, std::int64_t t0) const;

 private:
  struct Open {
    Layer layer;
    std::uint64_t batch;
    std::int64_t start;
    std::int64_t child_ns;
    std::uint64_t allocs_start;
    std::uint64_t child_allocs;
    std::int64_t kept_index;  // -1 when not kept
  };
  struct Kept {
    Layer layer;
    std::uint64_t batch;
    std::int64_t start;
    std::int64_t end;
    std::int64_t parent;  // kept index of the parent span, -1 for roots
  };
  int tid_;
  std::size_t keep_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  LayerTotals totals_[static_cast<std::size_t>(Layer::kCount)];
};

/// RAII span on a possibly-null log (null = untraced: no clock reads).
class Span {
 public:
  Span(SpanLog* log, Layer l, std::uint64_t batch) : log_(log) {
    if (log_ != nullptr) log_->begin(l, batch);
  }
  ~Span() {
    if (log_ != nullptr) log_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
};

// --- the application (app.cpp) ----------------------------------------------
/// The workload's application: per-stream digest of delivered bytes (all
/// workloads), per-stream Aho-Corasick scan (kMatch), and flow records
/// encoded as IPFIX on termination (kExport). Handlers may run on several
/// worker threads at once; per-stream state is striped by stream key.
class App {
 public:
  /// Builds the automaton for kMatch: the application's own set-up.
  App(const WorkloadSpec& spec, std::size_t max_streams);
  App(const App&) = delete;
  App& operator=(const App&) = delete;

  void on_data(scap::StreamView& sd, SpanLog* log);
  void on_terminated(scap::StreamView& sd, SpanLog* log);

  /// Fold results into `got` after the capture stopped (also checks the
  /// IPFIX round trip).
  void collect(Observed& got);

 private:
  struct Slot {
    TupleKey key;
    bool used = false;
    StreamDigest digest;
    std::uint32_t ac_state = 0;
  };
  struct Stripe {
    std::mutex mu;
    std::vector<Slot> slots;
    std::uint64_t matches = 0;
    std::uint64_t bytes = 0;
    std::uint64_t streams = 0;
    std::uint64_t digest = 0;
  };
  static constexpr std::size_t kStripes = 16;
  Slot& slot_for(Stripe& s, const TupleKey& key);
  void flush_records(SpanLog* log, scap::Timestamp now);

  AppKind kind_;
  match::AhoCorasick automaton_;
  Stripe stripes_[kStripes];

  std::mutex export_mu_;
  scap::exporter::IpfixWriter writer_;
  std::vector<scap::exporter::FlowRecord> pending_;
  std::vector<scap::exporter::FlowRecord> sent_;  // for the round trip
  std::vector<std::vector<std::uint8_t>> messages_;
  std::uint64_t records_ = 0;
  std::uint64_t record_octets_ = 0;
};

// --- sessions (timed.cpp, traced.cpp) ----------------------------------------
/// One capture session: set up, replay the whole trace in kBatch batches,
/// stop, and validate.
struct Session {
  double setup_s = 0;
  double timed_s = 0;  // first inject through stop()
  std::int64_t cpu_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t packets = 0;
  double rss_mib = 0;  // VmRSS before stop()
  Observed got;
  std::vector<std::string> errors;
};

/// Timed session through scap::Capture; appends per-batch wall times (ns).
Session run_capture_session(const WorkloadSpec& spec,
                            const flowgen::Trace& trace, const Expected& want,
                            LatencyHistogram& batch_ns);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Per-layer figures of traced sessions.
struct LayerReport {
  std::vector<Metric> metrics;                          // per_layer metrics
  std::vector<std::string> notes;                       // human-readable
  std::string chrome_json;                              // span dump
  std::uint64_t sessions = 0;
};

/// Traced sessions, replaying Capture's per-batch calls on the modules
/// directly with a span around each call.
class TracedRun {
 public:
  explicit TracedRun(const WorkloadSpec& spec);
  ~TracedRun();
  TracedRun(const TracedRun&) = delete;
  TracedRun& operator=(const TracedRun&) = delete;

  /// One traced session; returns its validation errors.
  std::vector<std::string> session(const flowgen::Trace& trace,
                                   const Expected& want);
  /// Per-layer metrics over every session so far; `untraced_ns_per_pkt`
  /// (Capture sessions of the same run) prices the tracing.
  LayerReport report(double untraced_ns_per_pkt) const;

 private:
  struct State;
  std::unique_ptr<State> st_;
};

}  // namespace perfbench
