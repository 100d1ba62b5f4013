// Good twin for stats-registry: every table row has a write site, the
// geometry field needs no witness, and the histogram is classified.
typedef unsigned long uint64_t;

namespace scap::kernel {

struct KernelStats {
  uint64_t seen = 0;
  uint64_t held[4] = {};
  uint64_t pool_cap = 0;
};

struct Log2Histogram {
  void add(uint64_t) {}
};

struct MetricsRegistry {
  Log2Histogram latency;
};

inline void touch(KernelStats& k) {
  k.seen += 1;
  ++k.held[2];
  k.pool_cap = 64;
}

}  // namespace scap::kernel
