// Dynamic FDIR load balancing (paper §2.4), decided by the figure driver
// at its NIC stage: a SYN RSS-hashed onto an overloaded queue is steered,
// with both directions of its connection, to the least-loaded queue.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench/common/driver.hpp"
#include "tests/kernel/test_helpers.hpp"

namespace scap::bench {
namespace {

using kernel::testing::SessionBuilder;
using kernel::testing::client_tuple;

constexpr int kQueues = 4;

ScapRunOptions lb_options() {
  ScapRunOptions opt;
  opt.softirq_cores = kQueues;
  opt.kernel.memory_size = 8 << 20;
  opt.kernel.creation_events = false;
  opt.dynamic_load_balance = true;
  opt.imbalance_threshold = 0.25;
  opt.imbalance_min_streams = 8;
  return opt;
}

/// `n` sessions whose tuples RSS maps onto queue 0: the skew §2.4 undoes.
std::vector<SessionBuilder> skewed_sessions(ScapPipeline& pipe, int n) {
  std::vector<SessionBuilder> sessions;
  for (std::uint16_t port = 1000; static_cast<int>(sessions.size()) < n;
       ++port) {
    if (pipe.nic().rss().queue_for(client_tuple(port, 80)) == 0) {
      sessions.emplace_back(client_tuple(port, 80));
    }
  }
  return sessions;
}

Packet server_fin(const SessionBuilder& s, Timestamp ts) {
  TcpSegmentSpec spec;
  spec.tuple = s.tuple().reversed();
  spec.seq = s.server_seq();
  spec.ack = s.client_seq();
  spec.flags = kTcpFin | kTcpAck;
  return make_tcp_packet(spec, ts);
}

/// Packets 10 µs apart: no RX ring ever overflows.
struct Clock {
  Timestamp t{0};
  Timestamp next() { return t = t + Duration::from_usec(10); }
};

TEST(LoadBalance, SteersStreamsOffOverloadedCore) {
  ScapPipeline pipe(lb_options());
  Clock clock;
  std::vector<SessionBuilder> sessions = skewed_sessions(pipe, 100);
  for (auto& s : sessions) pipe.offer(s.syn(clock.next()));
  EXPECT_GT(pipe.nic().fdir().size(), 0u);

  // Steered connections' later packets land on their target queue.
  const std::uint64_t steered_before = pipe.nic().stats().steered;
  for (auto& s : sessions) pipe.offer(s.data("x", clock.next()));
  EXPECT_GT(pipe.nic().stats().steered, steered_before);
  for (int q = 1; q < kQueues; ++q) {
    EXPECT_GT(pipe.nic().stats().per_queue[static_cast<std::size_t>(q)], 0u)
        << "queue " << q;
  }

  const RunResult r = pipe.finish();
  EXPECT_GT(r.streams_rebalanced, 0u);
  EXPECT_EQ(pipe.nic().fdir().size(), 0u);
  EXPECT_EQ(pipe.kernel().check_invariants(), "");
}

TEST(LoadBalance, NoRebalanceBelowMinStreams) {
  ScapRunOptions opt = lb_options();
  opt.imbalance_min_streams = 1000;
  ScapPipeline pipe(opt);
  Clock clock;
  for (auto& s : skewed_sessions(pipe, 100)) pipe.offer(s.syn(clock.next()));
  EXPECT_EQ(pipe.nic().fdir().size(), 0u);
  EXPECT_EQ(pipe.finish().streams_rebalanced, 0u);
}

TEST(LoadBalance, BalancedInputNotTouched) {
  ScapPipeline pipe(lb_options());
  Clock clock;
  // Tuples RSS spreads round-robin over the queues.
  int want = 0;
  for (std::uint16_t port = 1000; want < 100; ++port) {
    const FiveTuple tuple = client_tuple(port, 80);
    if (pipe.nic().rss().queue_for(tuple) != want % kQueues) continue;
    SessionBuilder s(tuple);
    pipe.offer(s.syn(clock.next()));
    ++want;
  }
  EXPECT_EQ(pipe.nic().fdir().size(), 0u);
  EXPECT_EQ(pipe.finish().streams_rebalanced, 0u);
}

TEST(LoadBalance, SteeringFiltersRemovedOnTermination) {
  ScapPipeline pipe(lb_options());
  Clock clock;
  std::vector<SessionBuilder> sessions = skewed_sessions(pipe, 50);
  for (auto& s : sessions) pipe.offer(s.syn(clock.next()));
  ASSERT_GT(pipe.nic().fdir().size(), 0u);
  for (auto& s : sessions) pipe.offer(s.rst(clock.next()));
  EXPECT_EQ(pipe.nic().fdir().size(), 0u);
  EXPECT_EQ(pipe.kernel().table().size(), 0u);
}

TEST(LoadBalance, TwoWayCloseRemovesBothSteeringFilters) {
  ScapPipeline pipe(lb_options());
  Clock clock;
  std::vector<SessionBuilder> sessions = skewed_sessions(pipe, 50);
  for (auto& s : sessions) {
    pipe.offer(s.syn(clock.next()));
    pipe.offer(s.syn_ack(clock.next()));
  }
  ASSERT_GT(pipe.nic().fdir().size(), 0u);
  for (auto& s : sessions) {
    pipe.offer(s.fin(clock.next()));
    pipe.offer(server_fin(s, clock.next()));
  }
  EXPECT_EQ(pipe.kernel().table().size(), 0u);
  EXPECT_EQ(pipe.nic().fdir().size(), 0u);
  EXPECT_GT(pipe.finish().streams_rebalanced, 0u);
}

TEST(LoadBalance, SteeringStaysOutOfKernelFdirCounters) {
  // Cutoff offload on: the kernel installs, expires and removes its own
  // drop filters on the same tuples the driver steers.
  ScapRunOptions opt = lb_options();
  opt.use_fdir = true;
  opt.kernel.defaults.cutoff_bytes = 0;
  opt.kernel.defaults.inactivity_timeout = Duration::from_sec(60);
  opt.kernel.fdir_base_timeout = Duration::from_sec(1);
  ScapPipeline pipe(opt);
  Clock clock;
  std::vector<SessionBuilder> sessions = skewed_sessions(pipe, 50);
  for (auto& s : sessions) {
    pipe.offer(s.syn(clock.next()));
    pipe.offer(s.syn_ack(clock.next()));
    pipe.offer(s.data("request", clock.next()));
    pipe.offer(s.reply_data("response", clock.next()));
  }
  const kernel::KernelStats& ks = pipe.kernel().stats();
  ASSERT_GT(ks.fdir_installs, 0u);
  const std::size_t steering = pipe.nic().fdir().size() -
                               nic::kCutoffFilters * ks.fdir_installs;
  ASSERT_GT(steering, 0u);

  // Both directions are past their cutoff, so all their data is dropped at
  // the NIC — on steered connections too: a drop filter wins over the
  // steering filter installed before it on the same tuple.
  const std::uint64_t nic_drops = pipe.nic().stats().dropped_by_filter;
  const std::uint64_t cutoff_discards = ks.pkts_cutoff;
  for (auto& s : sessions) {
    pipe.offer(s.data("more", clock.next()));
    pipe.offer(s.reply_data("more", clock.next()));
  }
  EXPECT_EQ(pipe.nic().stats().dropped_by_filter - nic_drops,
            2 * sessions.size());
  EXPECT_EQ(pipe.kernel().stats().pkts_cutoff, cutoff_discards);

  // Past the cutoff filters' lifetime: the maintenance pass expires them
  // and leaves the steering pairs.
  clock.t = clock.t + Duration::from_sec(2);
  pipe.offer(sessions.front().data("late", clock.next()));
  EXPECT_EQ(pipe.kernel().check_invariants(), "");
  EXPECT_GE(pipe.nic().fdir().size(), steering);

  for (auto& s : sessions) {
    pipe.offer(s.fin(clock.next()));
    pipe.offer(server_fin(s, clock.next()));
  }
  EXPECT_EQ(pipe.kernel().check_invariants(), "");
  EXPECT_EQ(pipe.nic().fdir().size(), 0u);
  EXPECT_GT(pipe.finish().streams_rebalanced, 0u);
}

TEST(LoadBalance, DisabledByDefault) {
  ScapRunOptions opt = lb_options();
  opt.dynamic_load_balance = ScapRunOptions{}.dynamic_load_balance;
  ScapPipeline pipe(opt);
  Clock clock;
  for (auto& s : skewed_sessions(pipe, 100)) pipe.offer(s.syn(clock.next()));
  EXPECT_EQ(pipe.nic().fdir().size(), 0u);
  EXPECT_EQ(pipe.finish().streams_rebalanced, 0u);
}

}  // namespace
}  // namespace scap::bench
