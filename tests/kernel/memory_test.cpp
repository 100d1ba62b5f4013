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

}  // namespace
}  // namespace scap::kernel
