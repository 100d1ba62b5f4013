// End-to-end integration: generator -> replayer -> NIC -> kernel -> events,
// validated against the generator's ground truth.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "bench/common/driver.hpp"
#include "bench/common/workloads.hpp"
#include "flowgen/replay.hpp"
#include "flowgen/workload.hpp"
#include "match/aho_corasick.hpp"
#include "match/corpus.hpp"

namespace scap::bench {
namespace {

flowgen::Trace patterned_trace(std::size_t flows, std::uint64_t seed) {
  flowgen::WorkloadConfig cfg;
  cfg.flows = flows;
  cfg.seed = seed;
  cfg.patterns = match::make_corpus({.pattern_count = 64});
  cfg.plant_probability = 0.4;
  return flowgen::build_trace(cfg);
}

TEST(PipelineIntegration, LowRateDeliversEverythingAndFindsAllPatterns) {
  const flowgen::Trace trace = patterned_trace(120, 5);
  const match::AhoCorasick ac(match::make_corpus({.pattern_count = 64}));

  ScapRunOptions opt;
  opt.kernel.memory_size = 1ull << 30;
  opt.automaton = &ac;
  RunResult r = run_scap(trace, 0.25, 1, opt);

  EXPECT_EQ(r.pkts_dropped, 0u);
  EXPECT_EQ(r.matches, trace.planted_matches);
  EXPECT_EQ(r.streams_with_data, directional_streams_with_data(trace));
}

TEST(PipelineIntegration, ByteExactDeliveryPerStream) {
  // Drive the kernel directly through a pipeline-like loop and compare the
  // reassembled bytes of every stream with a reference reconstruction.
  const flowgen::Trace trace = patterned_trace(60, 9);

  kernel::KernelConfig cfg;
  cfg.memory_size = 1ull << 30;
  kernel::ScapKernel k(cfg);
  std::map<std::string, std::string> delivered;
  auto drain = [&] {
    auto& q = k.events();
    while (!q.empty()) {
      kernel::Event ev = q.pop();
      if (ev.type == kernel::EventType::kData) {
        auto& s = delivered[to_string(ev.stream.tuple)];
        // Skip the overlap prefix when accumulating.
        s.append(ev.chunk.data.begin() + ev.chunk.overlap_len,
                 ev.chunk.data.end());
      }
      k.release_chunk(ev);
    }
  };
  for (const auto& pkt : trace.packets) {
    k.handle_packet(pkt, pkt.timestamp());
    drain();
  }
  k.terminate_all(trace.packets.back().timestamp());
  drain();

  // Reference: concatenate payloads in order per directional stream.
  std::map<std::string, std::string> expected;
  for (const auto& pkt : trace.packets) {
    if (pkt.payload_len() == 0) continue;
    expected[to_string(pkt.tuple())].append(
        reinterpret_cast<const char*>(pkt.payload().data()),
        pkt.payload_len());
  }
  ASSERT_EQ(delivered.size(), expected.size());
  for (const auto& [key, want] : expected) {
    EXPECT_EQ(delivered[key], want) << key;
  }
}

TEST(PipelineIntegration, OverloadDropsButKeepsStreamHeads) {
  const flowgen::Trace trace = patterned_trace(300, 11);
  const match::AhoCorasick ac(match::make_corpus({.pattern_count = 64}));

  ScapRunOptions opt;
  opt.kernel.memory_size = 8ull << 20;  // tight: forces PPL
  opt.kernel.ppl.base_threshold = 0.5;
  opt.kernel.ppl.overload_cutoff = 16 * 1024;
  opt.automaton = &ac;
  RunResult r = run_scap(trace, 6.0, 1, opt);

  EXPECT_GT(r.pkts_dropped, 0u);
  // Patterns live in stream heads; the overload cutoff protects them.
  EXPECT_GT(static_cast<double>(r.matches),
            0.7 * static_cast<double>(trace.planted_matches));
  // Few streams lost entirely.
  EXPECT_GT(static_cast<double>(r.streams_with_data),
            0.8 * static_cast<double>(directional_streams_with_data(trace)));
}

TEST(PipelineIntegration, ScapBeatsBaselineUnderOverload) {
  const flowgen::Trace trace = patterned_trace(300, 13);
  const match::AhoCorasick ac(match::make_corpus({.pattern_count = 64}));

  ScapRunOptions scap;
  scap.kernel.memory_size = 8ull << 20;
  scap.kernel.ppl.base_threshold = 0.5;
  scap.kernel.ppl.overload_cutoff = 16 * 1024;
  scap.automaton = &ac;
  RunResult r_scap = run_scap(trace, 6.0, 6, scap);

  BaselineRunOptions nids;
  nids.kind = BaselineKind::kLibnids;
  nids.automaton = &ac;
  // Ring scaled to the short replay window so sustained overload shows.
  nids.capture_ring_bytes = 2 << 20;
  RunResult r_nids = run_baseline(trace, 6.0, 6, nids);

  EXPECT_GT(r_scap.matches, r_nids.matches);
  EXPECT_GT(r_scap.streams_with_data, r_nids.streams_with_data);
}

TEST(PipelineIntegration, BaselineLowRateAlsoComplete) {
  const flowgen::Trace trace = patterned_trace(120, 17);
  const match::AhoCorasick ac(match::make_corpus({.pattern_count = 64}));

  BaselineRunOptions nids;
  nids.kind = BaselineKind::kLibnids;
  nids.automaton = &ac;
  RunResult r = run_baseline(trace, 0.25, 1, nids);
  EXPECT_EQ(r.pkts_dropped, 0u);
  EXPECT_EQ(r.matches, trace.planted_matches);
}

TEST(PipelineIntegration, YafTracksAllFlows) {
  const flowgen::Trace trace = patterned_trace(150, 19);
  BaselineRunOptions yaf;
  yaf.kind = BaselineKind::kYaf;
  RunResult r = run_baseline(trace, 0.25, 1, yaf);
  EXPECT_EQ(r.pkts_dropped, 0u);
  // Every flow tracked at least once. A flow can contribute a second short
  // record: the client FIN exports + removes it, then the server's own FIN
  // re-creates it briefly (YAF semantics).
  EXPECT_GE(r.streams_tracked, trace.flows.size());
  EXPECT_LE(r.streams_tracked, trace.flows.size() * 2);
}

TEST(PipelineIntegration, FdirReducesHostPackets) {
  const flowgen::Trace trace = patterned_trace(150, 23);
  ScapRunOptions base;
  base.kernel.defaults.cutoff_bytes = 0;
  base.kernel.creation_events = false;
  RunResult plain = run_scap(trace, 1.0, 1, base);
  ScapRunOptions fdir = base;
  fdir.use_fdir = true;
  RunResult offloaded = run_scap(trace, 1.0, 1, fdir);

  EXPECT_EQ(plain.pkts_nic_filtered, 0u);
  // With FDIR the majority of packets never reach the host.
  EXPECT_GT(offloaded.pkts_nic_filtered, offloaded.pkts_offered / 2);
  // Flow statistics still come out: all streams tracked.
  EXPECT_EQ(offloaded.streams_tracked, plain.streams_tracked);
}

TEST(PipelineIntegration, DropsIncreaseMonotonicallyWithRate) {
  const flowgen::Trace trace = patterned_trace(200, 29);
  double prev = -1.0;
  for (double rate : {1.0, 3.0, 6.0}) {
    BaselineRunOptions nids;
    nids.kind = BaselineKind::kLibnids;
    RunResult r = run_baseline(trace, rate, 2, nids);
    EXPECT_GE(r.drop_pct(), prev) << "rate " << rate;
    prev = r.drop_pct();
  }
}

TEST(PipelineIntegration, MultiCoreRunIsPinned) {
  // Four simulated cores over one kernel: streams are evicted and expire
  // on cores other than the one whose packet triggers it, and PPL drops,
  // so every core's event order and release times reach the result. The
  // values are this run's output when each core had its own kernel queue.
  const flowgen::Trace trace = patterned_trace(300, 41);
  const match::AhoCorasick ac(match::make_corpus({.pattern_count = 64}));
  ScapRunOptions opt;
  opt.softirq_cores = 4;
  opt.worker_threads = 2;
  opt.enable_cache_model = true;
  opt.automaton = &ac;
  opt.kernel.memory_size = 1000000;
  opt.kernel.ppl.base_threshold = 0.5;
  opt.kernel.max_streams = 16;
  opt.kernel.defaults.inactivity_timeout = Duration::from_msec(10);
  opt.kernel.expiry_interval = Duration::from_msec(2);
  ScapPipeline pipe(opt);
  flowgen::Replayer(trace, 2.0, 1).for_each(
      [&](const Packet& pkt) { pipe.offer(pkt); });
  const RunResult r = pipe.finish();

  const kernel::KernelStats& ks = pipe.kernel().stats();
  EXPECT_EQ(ks.streams_evicted, 12u);
  EXPECT_EQ(ks.pkts_ppl_dropped, 37u);
  EXPECT_EQ(r.pkts_offered, 11321u);
  EXPECT_EQ(r.pkts_dropped, 1670u);
  EXPECT_EQ(r.pkts_nic_filtered, 0u);
  EXPECT_EQ(r.bytes_offered, 9962389u);
  EXPECT_DOUBLE_EQ(r.duration_sec, 0.039849556000000001);
  EXPECT_DOUBLE_EQ(r.cpu_user_pct, 69.781246245252703);
  EXPECT_DOUBLE_EQ(r.softirq_pct, 16.786815642312302);
  EXPECT_EQ(r.matches, 85u);
  EXPECT_EQ(r.streams_tracked, 590u);
  EXPECT_EQ(r.streams_with_data, 446u);
  EXPECT_EQ(r.streams_rebalanced, 0u);
  EXPECT_EQ(r.prio_pkts[0], 11321u);
  EXPECT_EQ(r.prio_pkts[1], 0u);
  EXPECT_EQ(r.prio_dropped[0], 1670u);
  EXPECT_EQ(r.prio_dropped[1], 0u);
  EXPECT_EQ(r.l2_misses, 118066u);
  EXPECT_DOUBLE_EQ(r.l2_misses_per_pkt, 10.428937373023585);
}

TEST(PipelineIntegration, ImpairedTraceStillByteExactInStrictMode) {
  flowgen::WorkloadConfig cfg;
  cfg.flows = 60;
  cfg.seed = 31;
  cfg.duplicate_probability = 0.08;
  cfg.reorder_probability = 0.08;
  cfg.patterns = match::make_corpus({.pattern_count = 32});
  cfg.plant_probability = 0.5;
  const flowgen::Trace trace = flowgen::build_trace(cfg);
  const match::AhoCorasick ac(match::make_corpus({.pattern_count = 32}));

  ScapRunOptions opt;
  opt.kernel.defaults.mode = kernel::ReassemblyMode::kTcpStrict;
  opt.automaton = &ac;
  RunResult r = run_scap(trace, 0.25, 1, opt);
  EXPECT_EQ(r.matches, trace.planted_matches);
}

}  // namespace
}  // namespace scap::bench
