#include "base/ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace scap {
namespace {

TEST(SpscRing, FifoOrderSingleThread) {
  SpscRing<int> r(8);
  base::SerialGuard prod(r.producer());
  base::SerialGuard cons(r.consumer());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(r.try_push(i));
  EXPECT_FALSE(r.try_push(99));  // full
  for (int i = 0; i < 8; ++i) {
    auto v = r.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(r.try_pop().has_value());
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> r(5);
  EXPECT_EQ(r.capacity(), 8u);
  SpscRing<int> r2(8);
  EXPECT_EQ(r2.capacity(), 8u);
}

TEST(SpscRing, PopBatchDrainsInOrder) {
  SpscRing<int> r(16);
  base::SerialGuard prod(r.producer());
  base::SerialGuard cons(r.consumer());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(r.try_push(i));
  std::vector<int> out(4);
  EXPECT_EQ(r.pop_batch(out), 4u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[3], 3);
  std::vector<int> rest(16);
  EXPECT_EQ(r.pop_batch(rest), 6u);
  EXPECT_EQ(rest[0], 4);
  EXPECT_EQ(rest[5], 9);
  EXPECT_EQ(r.pop_batch(rest), 0u);
}

TEST(SpscRing, MoveOnlyTypes) {
  SpscRing<std::unique_ptr<int>> r(2);
  base::SerialGuard prod(r.producer());
  base::SerialGuard cons(r.consumer());
  EXPECT_TRUE(r.try_push(std::make_unique<int>(7)));
  auto v = r.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 7);
}

// Watermark admission keys off exact occupancy (size_from_producer), so the
// full/empty boundary must be exact at every wrap: push to exactly full,
// pop one, push one, repeated across several capacities' worth of traffic
// so both index counters cross the capacity and 2x-capacity wrap points.
TEST(SpscRing, ExactFullBoundaryAcrossWraps) {
  constexpr std::size_t kCap = 8;
  SpscRing<std::uint64_t> r(kCap);
  ASSERT_EQ(r.capacity(), kCap);
  base::SerialGuard prod(r.producer());
  base::SerialGuard cons(r.consumer());

  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  for (; next_push < kCap; ++next_push) ASSERT_TRUE(r.try_push(next_push));
  EXPECT_FALSE(r.try_push(next_push));  // exactly full
  EXPECT_EQ(r.size_from_producer(), kCap);

  // 3x capacity lockstep steps: the head/tail indices cross kCap after the
  // first lap and 2*kCap after the second, so a masking bug at either wrap
  // would surface as a lost/duplicated slot or a wrong size.
  for (std::size_t step = 0; step < 3 * kCap; ++step) {
    auto v = r.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, next_pop++);
    EXPECT_EQ(r.size_from_producer(), kCap - 1);
    ASSERT_TRUE(r.try_push(next_push++));
    EXPECT_FALSE(r.try_push(next_push));  // back to exactly full
    EXPECT_EQ(r.size_from_producer(), kCap);
  }

  while (next_pop < next_push) {
    auto v = r.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, next_pop++);
  }
  EXPECT_FALSE(r.try_pop().has_value());
  EXPECT_EQ(r.size_from_producer(), 0u);
}

// A producer spinning on a full ring must exit as soon as stop is
// requested even though the consumer never drains another item — the
// bounded-teardown guarantee KernelShards::stop() builds on. A hang here
// fails via the test timeout.
TEST(SpscRing, StopRequestWhileProducerBackpressured) {
  SpscRing<int> r(4);
  std::atomic<bool> stop{false};
  std::atomic<bool> blocked{false};

  std::thread producer([&] {
    base::SerialGuard prod(r.producer());
    for (int i = 0;; ++i) {
      while (!r.try_push(i)) {
        blocked.store(true, std::memory_order_release);
        if (stop.load(std::memory_order_acquire)) return;
        std::this_thread::yield();
      }
    }
  });

  while (!blocked.load(std::memory_order_acquire)) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  producer.join();

  // The ring still holds exactly the four items that fit, in order.
  base::SerialGuard cons(r.consumer());
  for (int i = 0; i < 4; ++i) {
    auto v = r.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(r.try_pop().has_value());
}

// Cross-thread stress: one producer pushes a counting sequence through a
// small ring (forcing wrap-arounds and full-ring backoff) while one
// consumer pops in batches; the consumer must observe the exact sequence.
// Run under TSan this also checks the acquire/release protocol.
TEST(SpscRing, ProducerConsumerStressKeepsSequence) {
  constexpr std::uint64_t kItems = 200000;
  SpscRing<std::uint64_t> r(64);

  std::thread producer([&] {
    base::SerialGuard prod(r.producer());
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!r.try_push(i)) std::this_thread::yield();
    }
  });

  std::uint64_t expected = 0;
  bool in_order = true;
  {
    base::SerialGuard cons(r.consumer());
    std::vector<std::uint64_t> batch(32);
    while (expected < kItems) {
      const std::size_t n = r.pop_batch(batch);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (batch[i] != expected) in_order = false;
        ++expected;
      }
    }
  }
  producer.join();
  EXPECT_TRUE(in_order);
  EXPECT_EQ(expected, kItems);
  EXPECT_TRUE(r.empty_approx());
}

TEST(MpscQueue, SingleThreadFifo) {
  MpscQueue<int> q(4);
  base::SerialGuard cons(q.consumer());
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_TRUE(q.try_push(4));
  EXPECT_FALSE(q.try_push(5));  // full
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_TRUE(q.try_push(5));  // slot recycled
  EXPECT_EQ(q.try_pop().value(), 3);
  EXPECT_EQ(q.try_pop().value(), 4);
  EXPECT_EQ(q.try_pop().value(), 5);
  EXPECT_FALSE(q.try_pop().has_value());
}

// Multiple producers hammer the bounded queue while the single consumer
// drains; every pushed element must come out exactly once.
TEST(MpscQueue, MultiProducerDeliversEveryElementOnce) {
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  MpscQueue<std::uint64_t> q(256);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t tagged =
            (static_cast<std::uint64_t>(p) << 32) | i;
        while (!q.try_push(tagged)) std::this_thread::yield();
      }
    });
  }

  std::uint64_t next_expected[kProducers] = {};
  std::uint64_t received = 0;
  bool per_producer_order = true;
  {
    base::SerialGuard cons(q.consumer());
    while (received < kProducers * kPerProducer) {
      auto v = q.try_pop();
      if (!v.has_value()) {
        std::this_thread::yield();
        continue;
      }
      const std::uint64_t p = *v >> 32;
      const std::uint64_t i = *v & 0xffffffffu;
      // Per-producer FIFO: each producer's elements arrive in push order.
      if (i != next_expected[p]) per_producer_order = false;
      next_expected[p] = i + 1;
      ++received;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(per_producer_order);
  EXPECT_EQ(received, kProducers * kPerProducer);
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[p], kPerProducer);
  }
}

}  // namespace
}  // namespace scap
