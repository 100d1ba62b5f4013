#include "kernel/events.hpp"

#include <gtest/gtest.h>

namespace scap::kernel {
namespace {

Event event(StreamId id) {
  Event ev;
  ev.stream.id = id;
  return ev;
}

/// Pops everything left and checks the ids run from `first` upwards.
void expect_drains_in_order(EventQueue& q, StreamId first) {
  StreamId want = first;
  while (!q.empty()) EXPECT_EQ(q.pop().stream.id, want++);
}

TEST(EventQueue, PopsInPushOrder) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  for (StreamId id = 1; id <= 100; ++id) q.push(event(id));
  EXPECT_EQ(q.size(), 100u);
  expect_drains_in_order(q, 1);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, WrapsAroundAtSteadyBacklog) {
  EventQueue q;
  StreamId next_in = 1;
  StreamId next_out = 1;
  for (int i = 0; i < 5; ++i) q.push(event(next_in++));
  for (int round = 0; round < 1000; ++round) {
    q.push(event(next_in++));
    ASSERT_EQ(q.pop().stream.id, next_out++);
    ASSERT_EQ(q.size(), 5u);
  }
  expect_drains_in_order(q, next_out);
}

// The head sits mid-ring when the ring fills, so growth has to unroll the
// wrapped events into the bigger ring oldest first.
TEST(EventQueue, GrowthWhileWrappedKeepsOrder) {
  EventQueue q;
  for (StreamId id = 1; id <= 10; ++id) q.push(event(id));
  for (StreamId id = 1; id <= 8; ++id) ASSERT_EQ(q.pop().stream.id, id);
  for (StreamId id = 11; id <= 40; ++id) q.push(event(id));
  EXPECT_EQ(q.size(), 32u);
  expect_drains_in_order(q, 9);
}

TEST(EventQueue, PopMovesEventOutWithItsChunkBuffer) {
  EventQueue q;
  Event ev = event(7);
  ev.type = EventType::kTerminated;
  ev.chunk.data.assign(1000, 0xab);
  ev.chunk.stream_offset = 4096;
  ev.chunk_alloc = 1000;
  ev.app_mask = 0b101;
  const std::uint8_t* bytes = ev.chunk.data.data();
  q.push(std::move(ev));
  // Growing the ring moves the queued event too.
  for (StreamId id = 8; id < 8 + 40; ++id) q.push(event(id));

  Event out = q.pop();
  EXPECT_EQ(out.stream.id, 7u);
  EXPECT_EQ(out.type, EventType::kTerminated);
  EXPECT_EQ(out.chunk.data.data(), bytes);
  EXPECT_EQ(out.chunk.data.size(), 1000u);
  EXPECT_EQ(out.chunk.stream_offset, 4096u);
  EXPECT_EQ(out.chunk_alloc, 1000u);
  EXPECT_EQ(out.app_mask, 0b101u);
  expect_drains_in_order(q, 8);
}

}  // namespace
}  // namespace scap::kernel
