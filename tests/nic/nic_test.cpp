#include "nic/nic.hpp"

#include <gtest/gtest.h>

#include "packet/craft.hpp"

namespace scap::nic {
namespace {

Packet tcp_packet(const FiveTuple& t, std::uint8_t flags = kTcpAck) {
  TcpSegmentSpec spec;
  spec.tuple = t;
  spec.flags = flags;
  return make_tcp_packet(spec, Timestamp(0));
}

TEST(Nic, RssDeliversToConsistentQueue) {
  Nic nic(4);
  FiveTuple t{0x0a000001, 0x0a000002, 40000, 80, kProtoTcp};
  auto r1 = nic.receive(tcp_packet(t));
  auto r2 = nic.receive(tcp_packet(t));
  EXPECT_EQ(r1.disposition, RxDisposition::kToQueue);
  EXPECT_EQ(r1.queue, r2.queue);
  // Both directions to the same queue (symmetric key).
  auto r3 = nic.receive(tcp_packet(t.reversed()));
  EXPECT_EQ(r3.queue, r1.queue);
  EXPECT_EQ(nic.stats().packets_seen, 3u);
}

TEST(Nic, DropFilterPreventsHostDelivery) {
  Nic nic(4);
  FiveTuple t{0x0a000001, 0x0a000002, 40000, 80, kProtoTcp};
  for (const auto& f : make_cutoff_filters(t, Timestamp::from_sec(10))) {
    nic.fdir().add(f);
  }
  auto r = nic.receive(tcp_packet(t, kTcpAck));
  EXPECT_EQ(r.disposition, RxDisposition::kDroppedByFilter);
  EXPECT_EQ(nic.stats().dropped_by_filter, 1u);
  // FIN escapes the filters and reaches a queue.
  auto fin = nic.receive(tcp_packet(t, kTcpAck | kTcpFin));
  EXPECT_EQ(fin.disposition, RxDisposition::kToQueue);
}

TEST(Nic, SteeringFilterOverridesRss) {
  Nic nic(8);
  FiveTuple t{0x0a000001, 0x0a000002, 40000, 80, kProtoTcp};
  int rss_queue = nic.receive(tcp_packet(t)).queue;
  int target = (rss_queue + 1) % 8;

  FdirFilter f;
  f.tuple = t;
  f.action = FdirAction::kToQueue;
  f.queue = target;
  f.expires = Timestamp::from_sec(10);
  nic.fdir().add(f);

  auto r = nic.receive(tcp_packet(t));
  EXPECT_EQ(r.queue, target);
  EXPECT_EQ(nic.stats().steered, 1u);
}

// A steering filter naming a queue the NIC does not have is rejected at
// install time, counted as an install failure, and so can never index
// past the per-queue counters on receive.
TEST(Nic, OutOfRangeSteerFilterIsRejected) {
  Nic nic(2);
  FiveTuple t{0x0a000001, 0x0a000002, 40000, 80, kProtoTcp};
  for (int queue : {5, 2, -1}) {
    FdirFilter f;
    f.tuple = t;
    f.action = FdirAction::kToQueue;
    f.queue = queue;
    f.expires = Timestamp::from_sec(10);
    EXPECT_EQ(nic.fdir().add(f), 0u) << "queue " << queue;
  }
  EXPECT_EQ(nic.fdir().add_failures(), 3u);
  EXPECT_EQ(nic.fdir().size(), 0u);

  const RxResult r = nic.receive(tcp_packet(t));
  EXPECT_EQ(r.disposition, RxDisposition::kToQueue);
  EXPECT_EQ(r.queue, nic.rss().queue_for(t));
  EXPECT_EQ(nic.stats().steered, 0u);
  EXPECT_EQ(nic.stats().per_queue[0] + nic.stats().per_queue[1], 1u);

  // The last in-range queue is still accepted.
  FdirFilter ok;
  ok.tuple = t;
  ok.action = FdirAction::kToQueue;
  ok.queue = 1;
  ok.expires = Timestamp::from_sec(10);
  EXPECT_NE(nic.fdir().add(ok), 0u);
  EXPECT_EQ(nic.receive(tcp_packet(t)).queue, 1);
}

TEST(Nic, StatsAccumulateBytes) {
  Nic nic(2);
  FiveTuple t{1, 2, 3, 4, kProtoTcp};
  Packet p = tcp_packet(t);
  nic.receive(p);
  nic.receive(p);
  EXPECT_EQ(nic.stats().bytes_seen, 2ull * p.wire_len());
  nic.reset_stats();
  EXPECT_EQ(nic.stats().packets_seen, 0u);
  EXPECT_EQ(nic.stats().per_queue.size(), 2u);
}

}  // namespace
}  // namespace scap::nic
