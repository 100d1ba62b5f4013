// In-memory span recorder and its Chrome trace_event dump.
#include <bit>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

std::size_t LatencyHistogram::index(std::uint64_t ns) {
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const int shift = 63 - std::countl_zero(ns) - kSubBits;
  return kSub + static_cast<std::size_t>(shift) * kSub +
         static_cast<std::size_t>((ns >> shift) - kSub);
}

void LatencyHistogram::add(std::uint64_t ns) {
  ++buckets_[index(ns)];
  ++count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double before = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const auto c = static_cast<double>(buckets_[i]);
    if (c == 0 || rank >= before + c) {
      before += c;
      continue;
    }
    double low = static_cast<double>(i);
    double width = 1;
    if (i >= kSub) {
      const std::size_t shift = (i - kSub) / kSub;
      low = static_cast<double>((kSub + (i - kSub) % kSub) << shift);
      width = static_cast<double>(std::uint64_t{1} << shift);
    }
    return low + width * (rank - before + 0.5) / c;
  }
  return 0.0;
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kBatch: return "batch";
    case Layer::kNicReceive: return "nic.receive";
    case Layer::kKernelBatch: return "kernel.handle_batch";
    case Layer::kDrain: return "scap.drain";
    case Layer::kHandler: return "app.handler";
    case Layer::kMatchScan: return "match.scan_stream";
    case Layer::kExportEncode: return "export.encode";
    case Layer::kShardSubmit: return "shard.submit_to";
    case Layer::kStop: return "scap.stop";
    case Layer::kCount: break;
  }
  return "?";
}

SpanLog::SpanLog(int tid, std::size_t keep) : tid_(tid), keep_(keep) {
  stack_.reserve(16);
  kept_.reserve(keep);
}

void SpanLog::begin(Layer l, std::uint64_t batch) {
  if (!stack_.empty()) batch = stack_.back().batch;  // children inherit
  std::int64_t kept_index = -1;
  if (kept_.size() < keep_) {
    kept_index = static_cast<std::int64_t>(kept_.size());
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().kept_index;
    kept_.push_back(Kept{l, batch, 0, 0, parent});
  }
  const std::uint64_t allocs = allocs_thread();
  const std::int64_t t = now_ns();
  if (kept_index >= 0) kept_[static_cast<std::size_t>(kept_index)].start = t;
  stack_.push_back(Open{l, batch, t, 0, allocs, 0, kept_index});
}

void SpanLog::end() {
  const std::int64_t t = now_ns();
  const std::uint64_t allocs = allocs_thread();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - o.start;
  const std::uint64_t span_allocs = allocs - o.allocs_start;
  LayerTotals& lt = totals_[static_cast<std::size_t>(o.layer)];
  lt.total_ns += dur;
  lt.self_ns += dur - o.child_ns;
  lt.allocs_self += span_allocs - o.child_allocs;
  ++lt.spans;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    stack_.back().child_allocs += span_allocs;
  }
  if (o.kept_index >= 0) kept_[static_cast<std::size_t>(o.kept_index)].end = t;
}

std::int64_t SpanLog::attributed_ns() const {
  std::int64_t sum = 0;
  for (const LayerTotals& lt : totals_) sum += lt.self_ns;
  return sum;
}

void SpanLog::write_chrome(std::string& out, bool& first,
                           std::int64_t t0) const {
  char buf[320];
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    if (k.end == 0) continue;  // still open when the log was written
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"span\": %zu, \"parent\": %lld, \"batch\": %llu}}",
                  first ? "" : ",", layer_name(k.layer), tid_,
                  static_cast<double>(k.start - t0) / 1e3,
                  static_cast<double>(k.end - k.start) / 1e3, i,
                  static_cast<long long>(k.parent),
                  static_cast<unsigned long long>(k.batch));
    out += buf;
    first = false;
  }
}

}  // namespace perfbench
