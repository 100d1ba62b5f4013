// FDIR filter-table churn under exhaustion (DESIGN.md §8): a full table
// evicting, expiring and re-installing filters with doubled timeouts —
// the add/evict/re-install cycle the kernel's maintenance pass drives —
// plus injected hardware install failures.
#include "nic/fdir.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "faultinject/faultinject.hpp"

namespace scap::nic {
namespace {

using faultinject::FaultInjector;
using faultinject::FaultPoint;
using faultinject::FaultScope;
using faultinject::InjectionPlan;

FiveTuple tuple_n(std::uint32_t n) {
  return {0x0a000000 + n, 0x0a00ffff, static_cast<std::uint16_t>(10000 + n),
          80, kProtoTcp};
}

FdirFilter drop_filter(std::uint32_t n, Timestamp expires) {
  FdirFilter f;
  f.tuple = tuple_n(n);
  f.action = FdirAction::kDrop;
  f.expires = expires;
  return f;
}

TEST(FdirChurn, ExhaustionEvictsInExpiryOrder) {
  FdirTable table(4);
  for (std::uint32_t n = 0; n < 4; ++n) {
    ASSERT_NE(table.add(drop_filter(n, Timestamp::from_sec(10 + n))), 0u);
  }
  ASSERT_EQ(table.size(), 4u);

  // Each further add evicts exactly the soonest-to-expire survivor:
  // first the 10s filter, then the 11s one, and so on.
  for (std::uint32_t n = 4; n < 8; ++n) {
    std::optional<FdirFilter> evicted;
    ASSERT_NE(table.add(drop_filter(n, Timestamp::from_sec(100 + n)), &evicted),
              0u);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->expires, Timestamp::from_sec(10 + (n - 4)));
    EXPECT_EQ(table.size(), 4u);
  }
  EXPECT_EQ(table.evictions(), 4u);
  EXPECT_EQ(table.add_failures(), 0u);  // evictions are not failures
}

// The paper's re-install policy (§5.5): when a filter times out but its
// stream is still alive, it is re-installed with a doubled timeout, so a
// long-lived stream is evicted only O(log duration) times. Model a pool of
// long-lived streams churning through a small table and count per-stream
// expiry events.
TEST(FdirChurn, ReinstallDoublingKeepsChurnLogarithmic) {
  constexpr std::uint32_t kStreams = 16;
  const Duration base = Duration::from_sec(1);
  FdirTable table(kStreams);  // exactly enough: every expiry is real churn

  std::map<std::uint32_t, Duration> timeout;  // stream -> current timeout
  std::map<std::uint32_t, int> expiries;      // stream -> expiry count
  std::map<std::uint32_t, std::uint32_t> stream_of_ip;

  Timestamp now(0);
  for (std::uint32_t n = 0; n < kStreams; ++n) {
    timeout[n] = base;
    stream_of_ip[tuple_n(n).src_ip] = n;
    ASSERT_NE(table.add(drop_filter(n, now + base)), 0u);
  }

  // 1024 base-timeout intervals of virtual time, serviced every interval
  // the way the kernel's maintenance pass services the timeout list.
  const Timestamp end = Timestamp(0) + base * 1024;
  std::vector<FdirFilter> expired;
  while (now < end) {
    now = now + base;
    // Re-adds wait until expire() returns: its visitor must not add.
    expired.clear();
    table.expire(now,
                 [&expired](const FdirFilter& f) { expired.push_back(f); });
    for (const FdirFilter& f : expired) {
      const std::uint32_t n = stream_of_ip.at(f.tuple.src_ip);
      ++expiries[n];
      timeout[n] = timeout[n] * 2;  // stream still alive: double and re-add
      ASSERT_NE(table.add(drop_filter(n, now + timeout[n])), 0u);
      ASSERT_LE(table.size(), table.capacity());
    }
  }

  // Doubling from 1s over 1024 intervals: expiries at 1,3,7,...,1023 —
  // exactly 10 per stream, never the ~1024 a fixed timeout would cost.
  for (std::uint32_t n = 0; n < kStreams; ++n) {
    EXPECT_EQ(expiries[n], 10) << "stream " << n;
  }
  EXPECT_EQ(table.size(), kStreams);
  EXPECT_EQ(table.evictions(), 0u);  // expiry service kept the table exact
}

TEST(FdirChurn, InjectedAddFailuresAreCountedNotInstalled) {
  FdirTable table(64);
  InjectionPlan plan;
  plan.at(FaultPoint::kFdirAdd).every_n = 2;  // every other add fails
  FaultInjector inj(plan);
  FaultScope scope(inj);

  std::uint32_t ok = 0, failed = 0;
  for (std::uint32_t n = 0; n < 32; ++n) {
    if (table.add(drop_filter(n, Timestamp::from_sec(10))) == 0) {
      ++failed;
    } else {
      ++ok;
    }
  }
  EXPECT_EQ(failed, 16u);
  EXPECT_EQ(ok, 16u);
  EXPECT_EQ(table.add_failures(), 16u);
  EXPECT_EQ(table.size(), 16u);
  EXPECT_EQ(inj.injected(FaultPoint::kFdirAdd), 16u);
}

TEST(FdirChurn, ZeroCapacityTableRejectsAndCounts) {
  FdirTable table(0);
  EXPECT_EQ(table.add(drop_filter(1, Timestamp::from_sec(10))), 0u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.add_failures(), 1u);
}

// Exhaustion + injection together: the failure counter and the eviction
// counter stay disjoint, so an operator can tell "hardware rejected the
// install" apart from "the table was full and churned".
TEST(FdirChurn, EvictionsAndFailuresStayDisjoint) {
  FdirTable table(8);
  InjectionPlan plan;
  plan.at(FaultPoint::kFdirAdd).every_n = 3;
  FaultInjector inj(plan);
  FaultScope scope(inj);

  std::uint64_t installs = 0;
  for (std::uint32_t n = 0; n < 60; ++n) {
    if (table.add(drop_filter(n, Timestamp::from_sec(10 + n))) != 0) {
      ++installs;
    }
  }
  EXPECT_EQ(table.add_failures(), 20u);         // 60 / 3
  EXPECT_EQ(installs, 40u);
  EXPECT_EQ(table.size(), 8u);
  EXPECT_EQ(table.evictions(), installs - 8u);  // each overflow evicted one
}

}  // namespace
}  // namespace scap::nic
