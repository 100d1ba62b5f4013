// Model-based differential test of the FDIR filter table: seeded random op
// sequences run against FdirTable and against a naive model — a vector of
// live filters in install order, scanned front to back — and every
// observable is compared after every op.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "nic/fdir.hpp"
#include "packet/craft.hpp"

namespace scap::nic {
namespace {

constexpr int kQueues = 4;

struct Installed {
  std::uint64_t id;
  FdirFilter filter;
};

bool same_filter(const FdirFilter& a, const FdirFilter& b) {
  return a.tuple == b.tuple && a.action == b.action && a.queue == b.queue &&
         a.has_flex == b.has_flex && a.flex_offset == b.flex_offset &&
         a.flex_value == b.flex_value && a.flex_mask == b.flex_mask &&
         a.expires == b.expires;
}

// The naive reference: what the table must do, with none of its structure.
class Model {
 public:
  explicit Model(std::size_t capacity) : capacity_(capacity) {}

  // Returns false when the add must be rejected; `victim` is set when the
  // table must evict first.
  bool add(std::uint64_t id, const FdirFilter& f,
           std::optional<FdirFilter>* victim) {
    victim->reset();
    if (f.action == FdirAction::kToQueue &&
        (f.queue < 0 || f.queue >= kQueues)) {
      ++add_failures;
      return false;
    }
    if (live.size() >= capacity_) {
      if (live.empty()) {
        ++add_failures;
        return false;
      }
      // Soonest expiry; among equals the earliest installed.
      std::size_t v = 0;
      for (std::size_t i = 1; i < live.size(); ++i) {
        if (live[i].filter.expires < live[v].filter.expires) v = i;
      }
      *victim = live[v].filter;
      gone.push_back(live[v].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(v));
      ++evictions;
    }
    live.push_back({id, f});
    return true;
  }

  bool remove(std::uint64_t id) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].id == id) {
        gone.push_back(id);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  std::size_t remove_tuple(const FiveTuple& t) {
    return std::erase_if(live, [&](const Installed& e) {
      if (!(e.filter.tuple == t)) return false;
      gone.push_back(e.id);
      return true;
    });
  }

  // Expired filters in (expiry, install) order.
  std::vector<FdirFilter> expire(Timestamp now) {
    std::vector<Installed> due;
    for (const Installed& e : live) {
      if (e.filter.expires <= now) due.push_back(e);
    }
    std::stable_sort(due.begin(), due.end(),
                     [](const Installed& a, const Installed& b) {
                       return a.filter.expires < b.filter.expires;
                     });
    std::erase_if(live, [&](const Installed& e) {
      return e.filter.expires <= now;
    });
    std::vector<FdirFilter> out;
    for (const Installed& e : due) {
      gone.push_back(e.id);
      out.push_back(e.filter);
    }
    return out;
  }

  const FdirFilter* match(const Packet& pkt) const {
    const auto frame = pkt.frame();
    for (const Installed& e : live) {
      const FdirFilter& f = e.filter;
      if (!(f.tuple == pkt.tuple())) continue;
      if (f.has_flex) {
        if (frame.size() < static_cast<std::size_t>(f.flex_offset) + 2u) {
          continue;
        }
        const std::uint16_t halfword = static_cast<std::uint16_t>(
            (frame[f.flex_offset] << 8) | frame[f.flex_offset + 1u]);
        if ((halfword & f.flex_mask) != (f.flex_value & f.flex_mask)) continue;
      }
      return &f;
    }
    return nullptr;
  }

  std::vector<Installed> live;    // install order
  std::vector<std::uint64_t> gone;  // ids no longer installed
  std::uint64_t evictions = 0;
  std::uint64_t add_failures = 0;

 private:
  std::size_t capacity_;
};

class FdirModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A small tuple pool so duplicate tuples, shared buckets and
    // remove_tuple hits are common; one pair of directions included.
    for (std::uint32_t i = 0; i < 10; ++i) {
      tuples_.push_back({0x0a000000 + (i % 4), 0x0a0000ff,
                         static_cast<std::uint16_t>(1000 + i), 80, kProtoTcp});
    }
    tuples_.push_back(tuples_[0].reversed());
    static const std::uint8_t data[32] = {};
    const std::uint8_t flag_sets[] = {kTcpAck, kTcpAck | kTcpPsh,
                                      kTcpAck | kTcpFin, kTcpRst, kTcpSyn};
    for (const FiveTuple& t : tuples_) {
      for (std::uint8_t flags : flag_sets) {
        TcpSegmentSpec spec;
        spec.tuple = t;
        spec.flags = flags;
        // Data segments carry payload; the others are header-only frames,
        // too short for a flex window at offset 60.
        if (flags == kTcpAck || flags == (kTcpAck | kTcpPsh)) {
          spec.payload = std::span<const std::uint8_t>(data);
        }
        packets_.push_back(make_tcp_packet(spec, Timestamp(0)));
      }
    }
  }

  FdirFilter random_filter(std::mt19937& rng) {
    FdirFilter f;
    f.tuple = tuples_[rng() % tuples_.size()];
    f.expires = Timestamp::from_usec(static_cast<std::int64_t>(rng() % 40));
    switch (rng() % 4) {
      case 0:  // no flex
        break;
      case 1:
      case 2:  // the two cutoff variants: flags == ACK, flags == ACK|PSH
        f.has_flex = true;
        f.flex_offset = kTcpFlagsFlexOffset;
        f.flex_value = (rng() % 2) ? kTcpAck : (kTcpAck | kTcpPsh);
        f.flex_mask = 0x003f;
        break;
      default:  // a window past the end of header-only frames
        f.has_flex = true;
        f.flex_offset = 60;
        f.flex_value = 0;
        f.flex_mask = 0xffff;
        break;
    }
    if (rng() % 4 == 0) {
      f.action = FdirAction::kToQueue;
      f.queue = static_cast<int>(rng() % (kQueues + 2)) - 1;  // -1..kQueues
    }
    return f;
  }

  std::vector<FiveTuple> tuples_;
  std::vector<Packet> packets_;
};

TEST_F(FdirModelTest, MatchesNaiveScanAcrossCapacities) {
  std::mt19937 rng(0xfd1eu);
  std::size_t total_adds = 0, total_evictions = 0, stale_checks = 0;
  for (std::size_t capacity = 1; capacity <= 64; ++capacity) {
    FdirTable table(capacity, kQueues);
    Model model(capacity);
    for (int op = 0; op < 300; ++op) {
      const auto kind = rng() % 10;
      if (kind < 6) {
        const FdirFilter f = random_filter(rng);
        std::optional<FdirFilter> evicted, want_evicted;
        const std::uint64_t id = table.add(f, &evicted);
        const bool want_ok = model.add(id, f, &want_evicted);
        ASSERT_EQ(id != 0, want_ok) << "capacity " << capacity << " op " << op;
        ASSERT_EQ(evicted.has_value(), want_evicted.has_value());
        if (evicted) {
          ASSERT_TRUE(same_filter(*evicted, *want_evicted));
          ++total_evictions;
        }
        ++total_adds;
      } else if (kind < 8) {
        // remove(id): a live id, or a stale one whose filter was removed,
        // evicted or expired (its slot most likely reused since).
        std::uint64_t id = 0;
        if (!model.live.empty() && (rng() % 3 != 0 || model.gone.empty())) {
          id = model.live[rng() % model.live.size()].id;
        } else if (!model.gone.empty()) {
          id = model.gone[rng() % model.gone.size()];
          ++stale_checks;
        }
        const bool want = model.remove(id);
        ASSERT_EQ(table.remove(id), want) << "id " << id;
      } else if (kind < 9) {
        const FiveTuple t = tuples_[rng() % tuples_.size()];
        ASSERT_EQ(table.remove_tuple(t), model.remove_tuple(t));
      } else {
        // Mostly early, so expiry trims the table rather than clearing it.
        const Timestamp now =
            Timestamp::from_usec(static_cast<std::int64_t>(rng() % 12));
        std::vector<FdirFilter> got;
        const std::size_t count = table.expire(
            now, [&got](const FdirFilter& f) { got.push_back(f); });
        const std::vector<FdirFilter> want = model.expire(now);
        ASSERT_EQ(count, got.size());
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_TRUE(same_filter(got[i], want[i])) << "expired #" << i;
        }
      }
      ASSERT_EQ(table.size(), model.live.size());
      ASSERT_EQ(table.evictions(), model.evictions);
      ASSERT_EQ(table.add_failures(), model.add_failures);
      for (int probe = 0; probe < 8; ++probe) {
        const Packet& pkt = packets_[rng() % packets_.size()];
        const FdirFilter* got = table.match(pkt);
        const FdirFilter* want = model.match(pkt);
        ASSERT_EQ(got == nullptr, want == nullptr)
            << "capacity " << capacity << " op " << op;
        if (got) {
          ASSERT_TRUE(same_filter(*got, *want));
        }
      }
    }
  }
  // The sequences really reached the interesting states.
  EXPECT_GT(total_adds, 8000u) << total_adds;
  EXPECT_GT(total_evictions, 1000u) << total_evictions;
  EXPECT_GT(stale_checks, 1000u) << stale_checks;
}

}  // namespace
}  // namespace scap::nic
