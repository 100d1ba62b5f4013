#include "kernel/flow_table.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "kernel/record_pool.hpp"

namespace scap::kernel {
namespace {

FiveTuple tuple(std::uint16_t port) {
  return {0x0a000001, 0x0a000002, port, 80, kProtoTcp};
}

TEST(FlowTable, CreateAndFind) {
  FlowTable table;
  auto* rec = table.create(tuple(1), Timestamp(0), nullptr);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(table.find(tuple(1)), rec);
  EXPECT_EQ(table.find(tuple(2)), nullptr);
  EXPECT_EQ(table.by_id(rec->id), rec);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, IdsAreUnique) {
  FlowTable table;
  auto* a = table.create(tuple(1), Timestamp(0), nullptr);
  auto* b = table.create(tuple(2), Timestamp(0), nullptr);
  EXPECT_NE(a->id, b->id);
}

TEST(FlowTable, RemoveUnlinksOpposite) {
  FlowTable table;
  auto* a = table.create(tuple(1), Timestamp(0), nullptr);
  auto* b = table.create(tuple(1).reversed(), Timestamp(0), nullptr);
  a->opposite = b->id;
  b->opposite = a->id;
  table.remove(*a);
  EXPECT_EQ(b->opposite, kInvalidStreamId);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, EvictsOldestWhenBudgetExhausted) {
  FlowTable table(/*max_records=*/3);
  table.create(tuple(1), Timestamp(1), nullptr);
  table.create(tuple(2), Timestamp(2), nullptr);
  table.create(tuple(3), Timestamp(3), nullptr);
  // Touch tuple(1) so tuple(2) becomes the oldest.
  table.touch(*table.find(tuple(1)), Timestamp(4));

  StreamId evicted = kInvalidStreamId;
  table.create(tuple(4), Timestamp(5),
               [&](StreamRecord& victim) { evicted = victim.id; });
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.find(tuple(2)), nullptr);  // the oldest went
  EXPECT_NE(table.find(tuple(1)), nullptr);
  EXPECT_NE(evicted, kInvalidStreamId);
  EXPECT_EQ(table.evicted_total(), 1u);
}

TEST(FlowTable, BudgetExhaustionAlwaysYieldsARecord) {
  // Contract: with max_records > 0 and the budget exhausted, create always
  // succeeds by evicting the LRU victim — it never returns nullptr.
  constexpr std::size_t kBudget = 4;
  FlowTable table(kBudget);
  for (std::uint16_t i = 1; i <= 2 * kBudget; ++i) {
    int evictions = 0;
    auto* rec = table.create(tuple(i), Timestamp(i),
                             [&](StreamRecord&) { ++evictions; });
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(evictions, i > kBudget ? 1 : 0);
    EXPECT_LE(table.size(), kBudget);
    // Interleave touches so eviction order differs from creation order.
    if (auto* keep = table.find(tuple(1))) table.touch(*keep, Timestamp(i));
  }
  EXPECT_EQ(table.size(), kBudget);
  EXPECT_EQ(table.evicted_total(), kBudget);
  // tuple(1) was touched on every round and must have survived throughout.
  EXPECT_NE(table.find(tuple(1)), nullptr);
}

TEST(FlowTable, RecordPointersStableAcrossGrowth) {
  FlowTable table;  // unbounded: starts at minimum capacity and regrows
  std::vector<StreamRecord*> recs;
  for (std::uint16_t i = 0; i < 5000; ++i) {
    FiveTuple t{static_cast<std::uint32_t>(i), 3, i, 443, kProtoTcp};
    recs.push_back(table.create(t, Timestamp(i), nullptr));
  }
  for (std::uint16_t i = 0; i < 5000; ++i) {
    FiveTuple t{static_cast<std::uint32_t>(i), 3, i, 443, kProtoTcp};
    EXPECT_EQ(table.find(t), recs[i]);     // same slab-allocated record
    EXPECT_EQ(table.by_id(recs[i]->id), recs[i]);
  }
}

TEST(FlowTable, ExpireIdleRespectsPerStreamTimeout) {
  FlowTable table;
  auto* a = table.create(tuple(1), Timestamp(0), nullptr);
  a->params.inactivity_timeout = Duration::from_sec(5);
  auto* b = table.create(tuple(2), Timestamp(0), nullptr);
  b->params.inactivity_timeout = Duration::from_sec(60);

  int expired = 0;
  table.expire_idle(Timestamp::from_sec(10), [&](StreamRecord&) { ++expired; });
  EXPECT_EQ(expired, 1);  // only the 5s-timeout stream
  EXPECT_EQ(table.find(tuple(1)), nullptr);
  EXPECT_NE(table.find(tuple(2)), nullptr);
}

TEST(FlowTable, ExpireScanStopsAtFirstFreshStream) {
  // The access list is LRU-ordered, so one fresh stream at the tail side
  // shields newer ones; expiry must walk oldest-first.
  FlowTable table;
  for (std::uint16_t i = 1; i <= 5; ++i) {
    auto* rec = table.create(tuple(i), Timestamp::from_sec(i), nullptr);
    rec->params.inactivity_timeout = Duration::from_sec(10);
    table.touch(*rec, Timestamp::from_sec(i));
  }
  int expired = 0;
  table.expire_idle(Timestamp::from_sec(13),
                    [&](StreamRecord&) { ++expired; });
  // Streams touched at t=1,2,3 have been idle >= 10s at t=13; t=4,5 not.
  EXPECT_EQ(expired, 3);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlowTable, TouchMovesToFront) {
  FlowTable table;
  table.create(tuple(1), Timestamp(0), nullptr);
  table.create(tuple(2), Timestamp(1), nullptr);
  EXPECT_EQ(table.oldest(), table.find(tuple(1)));
  table.touch(*table.find(tuple(1)), Timestamp(2));
  EXPECT_EQ(table.oldest(), table.find(tuple(2)));
}

TEST(FlowTable, UnlimitedGrowth) {
  FlowTable table;  // max_records = 0
  for (std::uint16_t i = 0; i < 10000; ++i) {
    FiveTuple t{static_cast<std::uint32_t>(i), 2, i, 80, kProtoTcp};
    ASSERT_NE(table.create(t, Timestamp(i), nullptr), nullptr);
  }
  EXPECT_EQ(table.size(), 10000u);
  EXPECT_EQ(table.created_total(), 10000u);
  EXPECT_EQ(table.evicted_total(), 0u);
}

TEST(FlowTable, RemoveMiddleOfLruKeepsListIntact) {
  FlowTable table;
  table.create(tuple(1), Timestamp(0), nullptr);
  auto* b = table.create(tuple(2), Timestamp(1), nullptr);
  table.create(tuple(3), Timestamp(2), nullptr);
  table.remove(*b);
  // Walk the whole list via expiry with a huge now.
  int seen = 0;
  table.expire_idle(Timestamp::from_sec(1000), [&](StreamRecord&) { ++seen; });
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(table.size(), 0u);
}

// A slot's record is built on its first acquire and keeps its reassembler
// across reuse; recycled_total counts only acquires of slots used before.
// Two slabs with the second partly used also exercise the destructor,
// which must destroy exactly the built records: under ASan a missed one
// leaks its reassembler's bytes and a never-built one crashes.
TEST(RecordPool, BuildsSlotsOnFirstUseAndKeepsReassemblers) {
  RecordPool pool(4);
  std::vector<StreamRecord*> recs;
  for (int i = 0; i < 6; ++i) recs.push_back(pool.acquire());
  EXPECT_EQ(pool.stats().slabs, 2u);
  EXPECT_EQ(pool.stats().recycled_total, 0u);
  const std::vector<std::uint8_t> bytes(100, 0x7e);
  for (StreamRecord* rec : recs) {
    rec->reasm.reset(StreamParams{}, false);
    rec->reasm.on_datagram(bytes, SegmentMeta{});
    ASSERT_EQ(rec->reasm.builder().buffered_len(), 100u);
  }

  recs[5]->id = 42;
  pool.release(recs[5]);
  StreamRecord* again = pool.acquire();
  EXPECT_EQ(again, recs[5]);
  EXPECT_EQ(again->id, kInvalidStreamId);  // fields value-initialized
  EXPECT_EQ(again->reasm.builder().buffered_len(), 100u);  // kept as is
  EXPECT_EQ(pool.stats().recycled_total, 1u);

  StreamRecord* fresh = pool.acquire();
  EXPECT_EQ(pool.stats().recycled_total, 1u);
  EXPECT_EQ(fresh->reasm.builder().buffered_len(), 0u);
}

}  // namespace
}  // namespace scap::kernel
