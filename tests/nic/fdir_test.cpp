#include "nic/fdir.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "packet/craft.hpp"

namespace scap::nic {
namespace {

FiveTuple tuple() { return {0x0a000001, 0x0a000002, 40000, 80, kProtoTcp}; }

Packet tcp_packet(std::uint8_t flags, const FiveTuple& t = tuple()) {
  TcpSegmentSpec spec;
  spec.tuple = t;
  spec.flags = flags;
  static const std::uint8_t data[100] = {};
  if (flags & kTcpAck) spec.payload = std::span<const std::uint8_t>(data);
  return make_tcp_packet(spec, Timestamp(0));
}

TEST(FdirTable, ExactTupleMatch) {
  FdirTable table;
  FdirFilter f;
  f.tuple = tuple();
  f.action = FdirAction::kDrop;
  f.expires = Timestamp::from_sec(10);
  table.add(f);

  EXPECT_NE(table.match(tcp_packet(kTcpAck)), nullptr);
  EXPECT_EQ(table.match(tcp_packet(kTcpAck, tuple().reversed())), nullptr);
}

TEST(FdirTable, CutoffFiltersDropDataButPassFinRst) {
  FdirTable table;
  for (const auto& f : make_cutoff_filters(tuple(), Timestamp::from_sec(10))) {
    table.add(f);
  }
  EXPECT_NE(table.match(tcp_packet(kTcpAck)), nullptr);
  EXPECT_NE(table.match(tcp_packet(kTcpAck | kTcpPsh)), nullptr);
  EXPECT_EQ(table.match(tcp_packet(kTcpAck | kTcpFin)), nullptr);
  EXPECT_EQ(table.match(tcp_packet(kTcpRst)), nullptr);
  EXPECT_EQ(table.match(tcp_packet(kTcpSyn)), nullptr);
  EXPECT_EQ(table.match(tcp_packet(kTcpSyn | kTcpAck)), nullptr);
}

TEST(FdirTable, RemoveById) {
  FdirTable table;
  FdirFilter f;
  f.tuple = tuple();
  f.expires = Timestamp::from_sec(1);
  std::uint64_t id = table.add(f);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.remove(id));
  EXPECT_FALSE(table.remove(id));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.match(tcp_packet(kTcpAck)), nullptr);
}

TEST(FdirTable, RemoveTupleClearsBothCutoffFilters) {
  FdirTable table;
  for (const auto& f : make_cutoff_filters(tuple(), Timestamp::from_sec(10))) {
    table.add(f);
  }
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.remove_tuple(tuple()), 2u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FdirTable, RemoveTupleWithActionLeavesOtherFilters) {
  FdirTable table;
  for (const auto& f : make_cutoff_filters(tuple(), Timestamp::from_sec(10))) {
    table.add(f);
  }
  FdirFilter steer;
  steer.tuple = tuple();
  steer.action = FdirAction::kToQueue;
  steer.queue = 3;
  steer.expires = Timestamp::from_sec(10);
  table.add(steer);
  ASSERT_EQ(table.size(), 3u);

  EXPECT_EQ(table.remove_tuple(tuple().reversed(), FdirAction::kDrop), 0u);
  EXPECT_EQ(table.remove_tuple(tuple(), FdirAction::kDrop), 2u);
  EXPECT_EQ(table.size(), 1u);
  const FdirFilter* left = table.match(tcp_packet(kTcpAck));
  ASSERT_NE(left, nullptr);
  EXPECT_EQ(left->action, FdirAction::kToQueue);
  EXPECT_EQ(left->queue, 3);
  EXPECT_EQ(table.remove_tuple(tuple(), FdirAction::kToQueue), 1u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FdirTable, ExpireReturnsTimedOutFilters) {
  FdirTable table;
  FdirFilter a;
  a.tuple = tuple();
  a.expires = Timestamp::from_sec(1);
  FdirFilter b;
  b.tuple = tuple().reversed();
  b.expires = Timestamp::from_sec(5);
  table.add(a);
  table.add(b);

  std::vector<FdirFilter> expired;
  auto collect = [&expired](const FdirFilter& f) { expired.push_back(f); };
  EXPECT_EQ(table.expire(Timestamp::from_sec(2), collect), 1u);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].tuple, tuple());
  EXPECT_EQ(table.size(), 1u);
  expired.clear();
  EXPECT_EQ(table.expire(Timestamp::from_sec(10), collect), 1u);
  EXPECT_EQ(expired.size(), 1u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FdirTable, EvictsSoonestExpiryWhenFull) {
  FdirTable table(2);
  FdirFilter f;
  f.tuple = tuple();
  f.expires = Timestamp::from_sec(100);
  table.add(f);
  FdirFilter g;
  g.tuple = {9, 9, 9, 9, kProtoTcp};
  g.expires = Timestamp::from_sec(1);  // shortest timeout: eviction victim
  table.add(g);

  FdirFilter h;
  h.tuple = {8, 8, 8, 8, kProtoTcp};
  h.expires = Timestamp::from_sec(50);
  std::optional<FdirFilter> evicted;
  table.add(h, &evicted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->tuple, g.tuple);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.evictions(), 1u);
}

TEST(FdirTable, FlexMatchRespectsMask) {
  FdirTable table;
  FdirFilter f;
  f.tuple = tuple();
  f.has_flex = true;
  f.flex_offset = kTcpFlagsFlexOffset;
  f.flex_value = kTcpAck;
  f.flex_mask = 0x003f;
  f.expires = Timestamp::from_sec(10);
  table.add(f);
  // Pure ACK matches; ACK|PSH does not (PSH bit differs under the mask).
  EXPECT_NE(table.match(tcp_packet(kTcpAck)), nullptr);
  EXPECT_EQ(table.match(tcp_packet(kTcpAck | kTcpPsh)), nullptr);
}

TEST(FdirTable, SteeringFilterCarriesQueue) {
  FdirTable table;
  FdirFilter f;
  f.tuple = tuple();
  f.action = FdirAction::kToQueue;
  f.queue = 5;
  f.expires = Timestamp::from_sec(10);
  table.add(f);
  const FdirFilter* m = table.match(tcp_packet(kTcpAck));
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->action, FdirAction::kToQueue);
  EXPECT_EQ(m->queue, 5);
}

}  // namespace
}  // namespace scap::nic
