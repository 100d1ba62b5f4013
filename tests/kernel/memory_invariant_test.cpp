// Randomized memory-accounting invariants: whatever mix of sessions,
// cutoffs, priorities, keep-chunks, and drain schedules runs through the
// kernel, every byte of chunk accounting must be returned by the end.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.hpp"
#include "kernel/module.hpp"
#include "tests/kernel/test_helpers.hpp"

namespace scap::kernel {
namespace {

using testing::SessionBuilder;
using testing::client_tuple;

class MemoryInvariant : public ::testing::TestWithParam<int> {};

TEST_P(MemoryInvariant, AllChunkMemoryReturnedEventually) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 3);

  KernelConfig cfg;
  cfg.memory_size = 256 * 1024;  // tight, so failures/PPL paths also run
  cfg.defaults.chunk_size = 1u << (6 + rng.bounded(8));  // 64B..8KB
  cfg.ppl.base_threshold = 0.25 + rng.uniform() * 0.5;
  cfg.ppl.priority_levels = 1 + static_cast<int>(rng.bounded(3));
  cfg.ppl.overload_cutoff = rng.chance(0.5) ? 4096 : -1;
  if (rng.chance(0.3)) cfg.defaults.cutoff_bytes = rng.bounded(20000);
  cfg.defaults.mode = rng.chance(0.5) ? ReassemblyMode::kTcpFast
                                      : ReassemblyMode::kTcpStrict;
  ScapKernel k(cfg);

  std::vector<SessionBuilder> sessions;
  for (int i = 0; i < 30; ++i) {
    sessions.emplace_back(
        client_tuple(static_cast<std::uint16_t>(10000 + i),
                     static_cast<std::uint16_t>(80 + i % 5)));
  }
  std::vector<Event> undrained;
  Timestamp t(0);
  int keep_budget = 5;

  auto drain_some = [&] {
    auto& q = k.events();
    while (!q.empty()) {
      Event ev = q.pop();
      if (ev.type == EventType::kData && keep_budget > 0 &&
          rng.chance(0.1)) {
        // Occasionally exercise keep_stream_chunk.
        --keep_budget;
        const std::uint32_t alloc = ev.chunk_alloc;
        if (k.keep_stream_chunk(ev.stream.id, std::move(ev.chunk), alloc)) {
          continue;
        }
      }
      if (rng.chance(0.3)) {
        undrained.push_back(std::move(ev));  // release later
      } else {
        k.release_chunk(ev);
      }
    }
  };

  for (int step = 0; step < 3000; ++step) {
    auto& s = sessions[rng.bounded(sessions.size())];
    t = t + Duration::from_usec(static_cast<std::int64_t>(rng.bounded(500)));
    const double dice = rng.uniform();
    if (dice < 0.08) {
      k.handle_packet(s.syn(t), t);
    } else if (dice < 0.80) {
      std::string payload(1 + rng.bounded(2000), 'p');
      k.handle_packet(s.data(payload, t), t);
    } else if (dice < 0.86) {
      k.handle_packet(s.rst(t), t);
    } else if (dice < 0.92) {
      k.handle_packet(s.fin(t), t);
    } else if (dice < 0.96) {
      // Out-of-order resend around the current position.
      std::string payload(1 + rng.bounded(300), 'q');
      const std::uint32_t back =
          static_cast<std::uint32_t>(rng.bounded(4000));
      k.handle_packet(s.data_at(s.client_seq() - back, payload, t), t);
    } else {
      drain_some();
    }
    // Occasionally mutate per-stream knobs through the control API.
    if (rng.chance(0.02)) {
      if (StreamRecord* rec = k.table().find(s.tuple())) {
        if (rng.chance(0.5)) {
          k.set_stream_priority(rec->id, static_cast<int>(rng.bounded(3)));
        } else {
          k.set_stream_cutoff(rec->id,
                              static_cast<std::int64_t>(rng.bounded(30000)));
        }
      }
    }
  }

  k.terminate_all(t);
  drain_some();
  for (auto& ev : undrained) k.release_chunk(ev);
  undrained.clear();
  // Drain anything the final terminations emitted.
  auto& q = k.events();
  while (!q.empty()) {
    Event ev = q.pop();
    k.release_chunk(ev);
  }

  EXPECT_EQ(k.allocator().used(), 0u) << "leaked chunk accounting";
  EXPECT_EQ(k.table().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryInvariant, ::testing::Range(0, 8));

}  // namespace
}  // namespace scap::kernel
