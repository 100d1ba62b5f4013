// Event tracing ring for the capture datapath (ISSUE 4; DESIGN.md §10).
//
// The paper evaluates Scap almost entirely through measurement; this layer
// gives the reproduction a runtime timeline to measure with. Typed events
// (packet verdicts, stream lifecycle, chunk deliveries, PPL transitions,
// FDIR churn, maintenance ticks) land in fixed-capacity per-core rings with
// simulated-clock timestamps, so a run's event stream is a pure function of
// its seed — the property the golden-trace tests assert on.
//
// Cost model: tracing is compiled in when SCAP_ENABLE_TRACE is defined
// (cmake -DSCAP_TRACE=ON, the default). Instrumentation sites go through
// the SCAP_TRACE_EVENT / SCAP_TRACE_METRIC macros, which cost one null
// check + one 32-byte store when a tracer is attached, a predictable
// never-taken branch when not, and compile to nothing with SCAP_TRACE=OFF.
// record() never allocates: the rings are sized at construction and wrap,
// counting what they overwrite.
#pragma once

#include <cstdint>
#include <vector>

#include "base/clock.hpp"
#include "trace/metrics.hpp"

namespace scap::trace {

// Every event type must have an emit site in src/ and a pretty-printer case
// in src/trace/export.cpp — tools/scap_lint.py (rule trace-coverage) fails
// the lint suite otherwise.
enum class TraceEventType : std::uint8_t {
  kPacketVerdict,     // a16 = Verdict, a32 = wire bytes, a64 = 0
  kStreamCreated,     // a16 = core, a32 = priority
  kChunkDelivered,    // a32 = chunk bytes, a64 = stream offset
  kStreamTerminated,  // a16 = StreamStatus, a64 = stream bytes
  kPplWatermark,      // a16 = 1 rising / 0 falling, a32 = occupancy permille
  kPplCutoffChange,   // a16 = overload flag, a64 = effective cutoff bytes
  kFdirInstall,       // a16 = 0 install / 1 reinstall queued by the
                      // kernel, 2 rejected: a full outbox (kernel) or
                      // one filter the NIC refused (NIC tracer, stream 0)
  kFdirEvict,         // a16 = 0 removal queued at stream close / 1 timer
                      // expiry of one filter (NIC tracer, stream 0)
  kNicSteer,          // a16 = queue, a32 = wire bytes
  kNicDrop,           // a32 = wire bytes (dropped at the NIC, subzero path)
  kMaintenanceTick,   // a32 = active streams, a64 = chunk bytes in use
  kEventDispatched,   // a16 = kernel EventType, a32 = chunk bytes
  kRingShed,          // core = shard; a16 = PPL priority, a32 = wire bytes,
                      // a64 = ring occupancy at the shed decision
  kWorkerStall,       // core = shard; a16 = StallPolicy, a32 = items
                      // outstanding in the shard ring at declaration
};

inline constexpr std::size_t kNumTraceEventTypes =
    static_cast<std::size_t>(TraceEventType::kWorkerStall) + 1;

/// Stable lowercase name (text serialization, scap_trace, Chrome export).
const char* to_string(TraceEventType t);

/// One trace record. 32 bytes, trivially copyable — the binary export
/// writes these verbatim (little-endian hosts only, like the pcap writer).
struct TraceEvent {
  std::int64_t ts_ns = 0;    // simulated-clock timestamp
  std::uint64_t stream = 0;  // StreamId, 0 = not stream-scoped
  std::uint64_t a64 = 0;     // type-specific (offsets, byte totals, cutoffs)
  std::uint32_t a32 = 0;     // type-specific (sizes, occupancy)
  std::uint16_t a16 = 0;     // type-specific (verdicts, statuses, flags)
  TraceEventType type = TraceEventType::kPacketVerdict;
  std::uint8_t core = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

static_assert(sizeof(TraceEvent) == 32, "TraceEvent layout is part of the "
              "binary trace format; keep it packed");

/// Fixed-capacity ring of TraceEvents. Writes wrap and overwrite the oldest
/// entry once full; `recorded() - size()` events were lost to wrap. Single
/// writer per ring (the owning core), which is what keeps record() a plain
/// store — cross-core safety comes from each core writing only its own ring.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity)
      : events_(capacity > 0 ? capacity : 1) {}

  void push(const TraceEvent& ev) {
    events_[static_cast<std::size_t>(recorded_ % events_.size())] = ev;
    ++recorded_;
    ++by_type_[static_cast<std::size_t>(ev.type)];
  }

  std::size_t capacity() const { return events_.size(); }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const {
    return recorded_ > events_.size() ? recorded_ - events_.size() : 0;
  }
  std::size_t size() const {
    return recorded_ < events_.size() ? static_cast<std::size_t>(recorded_)
                                      : events_.size();
  }

  /// Events ever recorded of one type (wrap-independent).
  std::uint64_t recorded_of(TraceEventType t) const {
    return by_type_[static_cast<std::size_t>(t)];
  }

  /// The i-th oldest retained event (0 = oldest still in the ring).
  const TraceEvent& at(std::size_t i) const {
    const std::uint64_t first = recorded_ - size();
    return events_[static_cast<std::size_t>((first + i) % events_.size())];
  }

 private:
  std::vector<TraceEvent> events_;
  std::uint64_t recorded_ = 0;
  std::uint64_t by_type_[kNumTraceEventTypes] = {};
};

struct TraceConfig {
  std::size_t ring_capacity = 1 << 16;  // events retained per core
  int cores = 1;
};

/// Per-core rings + the metrics registry, attached to the kernel, NIC, PPL
/// controller and Capture behind a nullable pointer. The tracer itself
/// carries no locks: every pointer that reaches it in the capture pipeline
/// is SCAP_PT_GUARDED_BY a capability — Capture::tracer_ by kernel_mutex_,
/// ScapKernel::tracer_ by the kernel's SerialDomain — so the thread-safety
/// analysis proves each record() call is serialized instead of a comment
/// promising it (DESIGN.md §11). Single-threaded owners (tools, tests)
/// hold those capabilities structurally.
class Tracer {
 public:
  explicit Tracer(const TraceConfig& config);

  void record(TraceEventType type, int core, Timestamp ts,
              std::uint64_t stream = 0, std::uint16_t a16 = 0,
              std::uint32_t a32 = 0, std::uint64_t a64 = 0) {
    TraceEvent ev;
    ev.ts_ns = ts.ns();
    ev.stream = stream;
    ev.a64 = a64;
    ev.a32 = a32;
    ev.a16 = a16;
    ev.type = type;
    const auto c = core >= 0 && static_cast<std::size_t>(core) < rings_.size()
                       ? static_cast<std::size_t>(core)
                       : 0;
    ev.core = static_cast<std::uint8_t>(c);
    rings_[c].push(ev);
  }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  std::size_t cores() const { return rings_.size(); }
  const TraceRing& ring(std::size_t core) const { return rings_[core]; }

  /// Events ever recorded of one type, summed across rings.
  std::uint64_t recorded_of(TraceEventType t) const;
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  /// All retained events, merged across rings into one timeline: ordered by
  /// timestamp, ties broken by core then by ring position — a total order,
  /// so two identical runs serialize identically.
  std::vector<TraceEvent> snapshot() const;

 private:
  std::vector<TraceRing> rings_;
  MetricsRegistry metrics_;
};

}  // namespace scap::trace

// Instrumentation macros: `tracer` is a (possibly null) Tracer*. With
// SCAP_TRACE=OFF both compile to nothing and the arguments are not
// evaluated, so hot paths carry zero tracing cost.
#if defined(SCAP_ENABLE_TRACE)
#define SCAP_TRACE_EVENT(tracer, ...)                       \
  do {                                                      \
    if ((tracer) != nullptr) (tracer)->record(__VA_ARGS__); \
  } while (0)
#define SCAP_TRACE_METRIC(tracer, hist, value)                    \
  do {                                                            \
    if ((tracer) != nullptr) (tracer)->metrics().hist.add(value); \
  } while (0)
#else
#define SCAP_TRACE_EVENT(tracer, ...) \
  do {                                \
  } while (0)
#define SCAP_TRACE_METRIC(tracer, hist, value) \
  do {                                         \
  } while (0)
#endif
