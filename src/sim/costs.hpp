// Cycle cost table — the calibration heart of the simulation substrate.
//
// The paper measures a real testbed (2.00 GHz Xeons, Intel 82599 10GbE). We
// replace wall-clock measurement with explicit cycle accounting: every
// datapath operation charges a cost from this table to either the softirq
// (kernel) or user context of a simulated core. A core supplies
// `core_hz` cycles per second of virtual time; work beyond that accumulates
// as backlog in the bounded queue feeding the core and eventually drops.
//
// Calibration targets (single core, ~800-byte average packets, mirroring the
// paper's campus trace) — chosen once and never tuned per experiment:
//
//   Libnids flow export / stream delivery saturates  ~2.0-2.5 Gbit/s
//   Snort Stream5 delivery saturates                 ~2.3-2.8 Gbit/s
//   YAF (96-byte snaplen, no reassembly) saturates   ~3.9-4.0 Gbit/s
//   Scap stream delivery stays loss-free through     ~5.5-6.0 Gbit/s
//   Pattern matching: Libnids/Snort ~0.75 Gbit/s, Scap ~1 Gbit/s per worker
//
// With the defaults below (avg packet ~1030B in the synthetic trace — data
// segments interleaved with delayed ACKs, like the campus mix):
//   YAF/packet      = deliver(2800) + flow(1200) + touch(96*1.2)  ≈ 4100
//                     -> saturates one 2GHz core near 4 Gbit/s
//   Libnids/packet  = deliver(2800) + flow(800) + reasm(1500) + copy(2/B)
//                     -> saturates near 2.4 Gbit/s
//   Snort/packet    = same with reasm(1100)     -> saturates near 2.6
//   Scap softirq/pkt= irq(2500) + flow(800) + reasm(400) + copy(2/B)
//   Scap user/chunk = event(2000) + touch(1.2/B) -> <60% CPU at 6 Gbit/s
//   Matching adds match_per_byte(14) wherever payload is scanned
//                     -> Scap ~1 Gbit/s per worker, baselines ~0.75.
#pragma once

#include <cstdint>

namespace scap::sim {

struct CostTable {
  // --- interrupt / kernel-side costs -------------------------------------
  /// NIC interrupt + driver receive path, charged per packet that reaches a
  /// host RX ring (softirq context). Packets dropped by FDIR at the NIC
  /// never pay this.
  double irq_per_packet = 2500.0;

  /// PF_PACKET-style copy of the captured frame into the shared capture
  /// ring (softirq context, per byte actually captured, i.e. post-snaplen).
  double ring_copy_per_byte = 2.0;

  /// Flow-table lookup + stream_t update (hash, timestamp, counters).
  /// Charged in softirq context for Scap, in user context for user-level
  /// reassembly libraries.
  double flow_update = 800.0;

  /// Scap in-kernel reassembly bookkeeping per packet (sequence tracking,
  /// hole list, chunk accounting) — cheaper than user-level reassembly
  /// because segments go straight to their stream buffer.
  double scap_reassembly_per_packet = 400.0;

  /// Copying payload bytes into a stream buffer (any context).
  double copy_per_byte = 2.0;

  /// Creating + enqueueing an event and waking the worker (softirq).
  double event_create = 500.0;

  /// Adding or removing one FDIR filter (driver MMIO; ~10us on real HW but
  /// amortized; charged in softirq context).
  double fdir_update = 2000.0;

  // --- user-side costs ----------------------------------------------------
  /// Per-packet overhead of a libpcap-style user-level delivery (poll
  /// wakeups, per-packet callback, ring bookkeeping).
  double pcap_deliver_per_packet = 2800.0;

  /// User-level TCP reassembly bookkeeping per packet (Libnids).
  double nids_reassembly_per_packet = 1500.0;

  /// User-level TCP reassembly bookkeeping per packet (Stream5 — slightly
  /// leaner than Libnids, matching the paper's relative ordering).
  double stream5_reassembly_per_packet = 1100.0;

  /// YAF per-packet flow-record update (no reassembly).
  double yaf_flow_update = 1200.0;

  /// Worker-thread event dispatch (poll, dequeue, callback invocation).
  double event_dispatch = 2000.0;

  /// Application touching delivered stream data (per byte) — the cost of
  /// reading a chunk out of the shared buffer even when doing "nothing".
  double user_touch_per_byte = 1.2;

  /// Aho-Corasick pattern matching per scanned byte.
  double match_per_byte = 14.0;

  // --- machine ------------------------------------------------------------
  /// Simulated core frequency (paper's sensor: 2.00 GHz Xeon).
  double core_hz = 2.0e9;
};

/// The one table used across experiments. Benches may copy and perturb it
/// only for explicitly-labelled sensitivity/ablation studies.
inline const CostTable& default_costs() {
  static const CostTable t{};
  return t;
}

}  // namespace scap::sim
