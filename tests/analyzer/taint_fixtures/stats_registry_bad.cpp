// Bad twin for stats-registry. The sibling .inc carries the row-level
// expectations; this file carries the unclassified histogram.
typedef unsigned long uint64_t;

namespace scap::kernel {

struct KernelStats {
  uint64_t seen = 0;
  uint64_t gone = 0;
  uint64_t peak = 0;
};

struct Log2Histogram {
  void add(uint64_t) {}
};

struct MetricsRegistry {
  Log2Histogram latency;  // expect-chain: stats-registry: -
};

inline void touch(KernelStats& k, uint64_t depth) {
  k.seen += 1;
  if (depth > k.peak) k.peak = depth;
}

}  // namespace scap::kernel
