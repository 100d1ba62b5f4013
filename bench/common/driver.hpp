// Experiment driver: runs a replayed trace through either the Scap stack or
// a libpcap-style baseline stack, with full cycle accounting.
//
// Pipeline topology (mirrors the paper's testbed):
//
//   Scap:      NIC(RSS+FDIR) -> per-core softirq server (kernel module:
//              flow tracking + reassembly + PPL) -> per-worker user server
//              (event dispatch + optional pattern matching)
//
//   Baseline:  NIC(RSS) -> per-core softirq server (PF_PACKET ring copy)
//              -> ONE shared 512MB capture ring -> single user thread
//              (libpcap delivery + user-level engine + optional matching)
//
// Every stage is a sim::QueueServer; packets/events denied admission are
// the experiment's "dropped packets". The chunk-buffer release times of
// Scap events feed back into PPL through a time-ordered release heap, so
// a slow worker genuinely causes kernel-level drops — the paper's overload
// behaviour.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "baseline/engine.hpp"
#include "baseline/nids.hpp"
#include "baseline/stream5.hpp"
#include "baseline/yaf.hpp"
#include "flowgen/replay.hpp"
#include "kernel/module.hpp"
#include "match/aho_corasick.hpp"
#include "nic/nic.hpp"
#include "sim/cache.hpp"
#include "sim/costs.hpp"
#include "sim/queue_server.hpp"

namespace scap::bench {

struct RunResult {
  std::uint64_t pkts_offered = 0;
  std::uint64_t pkts_dropped = 0;        // ring overflow + PPL + no-memory
  std::uint64_t pkts_nic_filtered = 0;   // FDIR subzero discards (not loss)
  std::uint64_t bytes_offered = 0;
  double duration_sec = 0.0;

  double drop_pct() const {
    return pkts_offered
               ? 100.0 * static_cast<double>(pkts_dropped) /
                     static_cast<double>(pkts_offered)
               : 0.0;
  }
  double cpu_user_pct = 0.0;   // application CPU (one core, or avg worker)
  double softirq_pct = 0.0;    // aggregate softirq load over all cores

  std::uint64_t matches = 0;
  std::uint64_t streams_tracked = 0;
  std::uint64_t streams_with_data = 0;

  // Per-priority accounting (Fig. 9).
  std::uint64_t prio_pkts[2] = {0, 0};
  std::uint64_t prio_dropped[2] = {0, 0};

  // Cache model output (Fig. 7).
  std::uint64_t l2_misses = 0;
  double l2_misses_per_pkt = 0.0;
};

/// Time-ordered replay of memory touches through the cache model, so the
/// cache sees accesses in virtual-time order, not program order.
class CacheTracker {
 public:
  void add(Timestamp t, std::uint64_t addr, std::uint64_t len) {
    heap_.push(Access{t.ns(), seq_++, addr, len});
  }
  void drain_until(Timestamp t);
  void flush();
  std::uint64_t misses() const { return cache_.misses(); }

  /// Stable virtual base address for a stream's reassembly buffer.
  std::uint64_t stream_base(const FiveTuple& tuple);

 private:
  struct Access {
    std::int64_t t_ns;
    std::uint64_t seq;
    std::uint64_t addr;
    std::uint64_t len;
    bool operator>(const Access& o) const {
      return t_ns != o.t_ns ? t_ns > o.t_ns : seq > o.seq;
    }
  };
  sim::CacheModel cache_;
  std::priority_queue<Access, std::vector<Access>, std::greater<>> heap_;
  std::uint64_t seq_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> bases_;
  std::uint64_t next_base_ = 1ull << 33;  // away from the ring's range
};

// --- Scap pipeline -----------------------------------------------------------

struct ScapRunOptions {
  sim::CostTable costs = sim::default_costs();
  int softirq_cores = 8;
  int worker_threads = 1;
  std::uint64_t rx_ring_bytes = 4 * 1024 * 1024;  // per-core NIC ring
  kernel::KernelConfig kernel;
  bool use_fdir = false;
  const match::AhoCorasick* automaton = nullptr;  // enables matching
  bool deliver_packets = false;  // match per packet (needs kernel.need_pkts)
  /// When false, matching cycles are charged but the automaton is not
  /// actually run — for sweeps that only need the load, not match counts.
  bool count_matches = true;
  bool enable_cache_model = false;
};

class ScapPipeline {
 public:
  explicit ScapPipeline(ScapRunOptions options);

  /// Feed one packet (timestamps must be non-decreasing).
  void offer(const Packet& pkt);

  /// Flush streams, drain remaining events, finalize utilization.
  RunResult finish();

  kernel::ScapKernel& kernel() { return *kernel_; }

 private:
  void service_releases(Timestamp now);
  void drain_events(int core, Timestamp ready);
  double softirq_cost(const kernel::PacketOutcome& out) const;

  ScapRunOptions opt_;
  nic::Nic nic_;
  std::unique_ptr<kernel::ScapKernel> kernel_;
  std::vector<sim::QueueServer> softirq_;
  std::vector<sim::QueueServer> user_;
  struct Release {
    std::int64_t t_ns;
    std::uint32_t size;
    bool operator>(const Release& o) const { return t_ns > o.t_ns; }
  };
  std::priority_queue<Release, std::vector<Release>, std::greater<>> releases_;
  std::optional<CacheTracker> cache_;
  RunResult result_;
  Timestamp last_ts_;
};

// --- Baseline pipeline ---------------------------------------------------------

enum class BaselineKind { kLibnids, kStream5, kYaf };

struct BaselineRunOptions {
  sim::CostTable costs = sim::default_costs();
  BaselineKind kind = BaselineKind::kLibnids;
  int softirq_cores = 8;
  std::uint64_t rx_ring_bytes = 4 * 1024 * 1024;
  /// The paper configures a 512MB PF_PACKET ring over an hour-long replay;
  /// our replay windows are seconds, so the default is scaled down to keep
  /// the ring-fill-time : run-duration ratio comparable. Benches replaying
  /// long windows may restore 512MB.
  std::uint64_t capture_ring_bytes = 16ull * 1024 * 1024;
  std::int64_t cutoff_bytes = -1;   // modified-Stream5 / nids cutoff (Fig. 8)
  std::size_t max_flows = 1 << 20;
  std::uint32_t chunk_size = 16 * 1024;
  Duration inactivity_timeout = Duration::from_sec(10);
  const match::AhoCorasick* automaton = nullptr;
  bool count_matches = true;
  bool enable_cache_model = false;
};

class BaselinePipeline {
 public:
  explicit BaselinePipeline(BaselineRunOptions options);

  void offer(const Packet& pkt);
  RunResult finish();

  baseline::Engine& engine() { return *engine_; }

 private:
  BaselineRunOptions opt_;
  nic::Nic nic_;
  std::unique_ptr<baseline::Engine> engine_;
  std::vector<sim::QueueServer> softirq_;
  sim::QueueServer user_;
  std::optional<CacheTracker> cache_;
  RunResult result_;
  Timestamp last_ts_;
  std::uint64_t ring_cursor_ = 0;   // circular capture-ring address
  // Matching state accumulated inside the engine's chunk callback.
  std::uint64_t matched_bytes_pending_ = 0;
};

/// Convenience: replay a trace through a freshly-built pipeline.
RunResult run_scap(const flowgen::Trace& trace, double rate_gbps, int loops,
                   ScapRunOptions options);
RunResult run_baseline(const flowgen::Trace& trace, double rate_gbps,
                       int loops, BaselineRunOptions options);

}  // namespace scap::bench
