// Counter-conservation under hostile load (DESIGN.md §9).
//
// Drives ScapKernel with the AdversaryGen traffic mix — well-formed
// sessions interleaved with garbage frames, header mutations, SYN floods
// and orphan fragments — under memory pressure, and asserts the kernel's
// full conservation suite (KernelStats::check_conservation plus the PPL
// monotonicity checks in ScapKernel::check_invariants) at every
// maintenance tick and after final teardown:
//
//   pkts_seen   == Σ verdict histogram
//   per-verdict scalar == its histogram bucket (13 pairs)
//   Σ parse_errors     == pkts_invalid
//   streams_created    == terminated + evicted + active
//   pool in-use        == streams_active
//
// Multiple seeds, 50k packets each: a counter increment added without its
// verdict (or vice versa) fails here within a few thousand packets.

#include <gtest/gtest.h>

#include <cstdint>

#include "faultinject/adversary.hpp"
#include "kernel/module.hpp"

namespace scap::kernel {
namespace {

using faultinject::AdversaryConfig;
using faultinject::AdversaryGen;

KernelConfig hostile_config() {
  KernelConfig cfg;
  // Small buffer: the mix must reach the PPL / exhaustion drop paths.
  cfg.memory_size = 96 * 1024;
  cfg.defaults.chunk_size = 4 * 1024;
  cfg.defaults.cutoff_bytes = 16 * 1024;
  cfg.defaults.inactivity_timeout = Duration::from_sec(5);
  cfg.ppl.base_threshold = 0.6;
  cfg.ppl.priority_levels = 4;
  cfg.defragment_ip = true;
  return cfg;
}

void drain(ScapKernel& k) {
  auto& q = k.events();
  while (!q.empty()) {
    Event ev = q.pop();
    k.release_chunk(ev);
  }
}

class ConservationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationTest, HostileMixHoldsAllLaws) {
  ScapKernel k(hostile_config());

  AdversaryConfig acfg;
  acfg.seed = GetParam();
  acfg.packets = 50000;
  // One maintenance tick (expiry_interval = 1s) every ~1000 packets.
  acfg.spacing = Duration::from_usec(1000);
  AdversaryGen gen(acfg);

  Timestamp now = acfg.start;
  Timestamp next_tick = now + Duration::from_sec(1);
  for (std::uint64_t i = 0; i < acfg.packets; ++i) {
    Packet pkt = gen.next();
    now = pkt.timestamp();
    k.handle_packet(pkt, now);
    if (now >= next_tick) {
      k.run_maintenance(now);
      next_tick = now + Duration::from_sec(1);
      ASSERT_EQ(k.check_invariants(), "")
          << "after " << (i + 1) << " packets (seed " << acfg.seed << ")";
      drain(k);
    }
  }

  k.terminate_all(now);
  drain(k);
  EXPECT_EQ(k.check_invariants(), "") << "after teardown";

  // The run must actually have exercised the interesting buckets.
  const KernelStats& s = k.stats();
  EXPECT_GT(s.pkts_stored, 0u);
  EXPECT_GT(s.pkts_invalid, 0u);
  EXPECT_GT(s.pkts_frag_held, 0u);
  EXPECT_GT(s.streams_created, 0u);
  EXPECT_EQ(s.streams_active, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationTest,
                         ::testing::Values(1u, 17u, 4242u));

}  // namespace
}  // namespace scap::kernel
