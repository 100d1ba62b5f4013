#include "kernel/memory.hpp"

#include <gtest/gtest.h>

namespace scap::kernel {
namespace {

TEST(ChunkAllocator, AllocateAndRelease) {
  ChunkAllocator alloc(1000);
  ASSERT_TRUE(alloc.allocate(400));
  EXPECT_EQ(alloc.used(), 400u);
  ASSERT_TRUE(alloc.allocate(400));
  EXPECT_EQ(alloc.used(), 800u);
  alloc.release(400);
  EXPECT_EQ(alloc.used(), 400u);
}

TEST(ChunkAllocator, FailsWhenExhausted) {
  ChunkAllocator alloc(1000);
  EXPECT_TRUE(alloc.allocate(800));
  EXPECT_FALSE(alloc.allocate(300));
  EXPECT_EQ(alloc.failures(), 1u);
  EXPECT_EQ(alloc.used(), 800u);
}

TEST(ChunkAllocator, UsedFraction) {
  ChunkAllocator alloc(1000);
  EXPECT_DOUBLE_EQ(alloc.used_fraction(), 0.0);
  alloc.allocate(250);
  EXPECT_DOUBLE_EQ(alloc.used_fraction(), 0.25);
}

TEST(ChunkAllocator, ForcedAllocationOvershoots) {
  ChunkAllocator alloc(100);
  alloc.allocate(100);
  alloc.allocate_forced(50);
  EXPECT_EQ(alloc.used(), 150u);
  EXPECT_GT(alloc.used_fraction(), 1.0);
  alloc.release(50);
  EXPECT_EQ(alloc.used(), 100u);
}

TEST(ChunkAllocator, HighWaterTracksPeak) {
  ChunkAllocator alloc(1000);
  alloc.allocate(600);
  alloc.release(600);
  alloc.allocate(100);
  EXPECT_EQ(alloc.high_water(), 600u);
}

TEST(ChunkAllocator, BuffersRecycleThroughTheirSizeClass) {
  ChunkAllocator alloc(1 << 20);
  const auto small = alloc.take_bytes(100);
  EXPECT_EQ(small.capacity(), 2048u);  // the smallest class
  auto big = alloc.take_bytes(3000);
  EXPECT_EQ(big.capacity(), 4096u);
  big.assign(3000, 0xab);
  const std::uint8_t* storage = big.data();
  alloc.recycle(big);
  EXPECT_EQ(big.capacity(), 0u);
  EXPECT_EQ(alloc.free_buffers(), 1u);

  // A request the 4 KiB class serves gets the same storage back, empty.
  const auto again = alloc.take_bytes(2049);
  EXPECT_EQ(again.data(), storage);
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(alloc.free_buffers(), 0u);

  // Recycling a buffer that holds no storage changes nothing.
  alloc.recycle(big);
  EXPECT_EQ(alloc.free_buffers(), 0u);
}

}  // namespace
}  // namespace scap::kernel
