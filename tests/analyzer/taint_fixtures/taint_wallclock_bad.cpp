// Bad twin for taint-wallclock: the wall-clock read sits two calls below
// the function that publishes stats — only transitive propagation connects
// them. The finding must land on the *sink* line (the stats write) with
// the full source->sink chain.
typedef unsigned long uint64_t;

extern "C" long time(long*);

namespace scap::kernel {

struct KernelStats {
  uint64_t pkts_seen = 0;
  uint64_t verdicts[4] = {};
};

inline long now_secs() {
  return time(nullptr);
}

inline long stamp() {
  return now_secs() + 1;
}

inline void publish(KernelStats& k) {
  k.pkts_seen += static_cast<uint64_t>(stamp());  // expect-chain: taint-wallclock: src:time() -> kernel::now_secs -> kernel::stamp -> kernel::publish -> sink:KernelStats.pkts_seen
  ++k.verdicts[stamp() & 3];  // expect-chain: taint-wallclock: src:time() -> kernel::now_secs -> kernel::stamp -> kernel::publish -> sink:KernelStats.verdicts
}

}  // namespace scap::kernel
