// Digest of the bytes delivered to the application, with the definition
// perfbench validates its workloads by: each directional stream folds its
// bytes as little-endian 8-byte words keyed by their position (so chunk
// boundaries do not matter), is finished with its 5-tuple when it
// terminates, and streams combine by addition (so the order in which
// shards close them does not matter). Handlers on every shard's worker
// may feed one digest concurrently.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <utility>

#include "base/hash.hpp"
#include "packet/headers.hpp"

namespace scap {

class DeliveredDigest {
 public:
  /// Fold a data event's new bytes: its chunk minus the overlap prefix.
  void on_data(const FiveTuple& tuple, std::span<const std::uint8_t> data) {
    std::lock_guard lock(mu_);
    Stream& st = open_[key_of(tuple)];
    for (const std::uint8_t b : data) {
      st.word |= static_cast<std::uint64_t>(b) << (8 * (st.bytes & 7));
      if ((++st.bytes & 7) == 0) {
        st.acc += word_hash(st.word, (st.bytes >> 3) - 1);
        st.word = 0;
      }
    }
  }

  void on_terminated(const FiveTuple& tuple) {
    const Key key = key_of(tuple);
    std::lock_guard lock(mu_);
    const auto it = open_.find(key);
    if (it == open_.end()) return;
    const Stream& st = it->second;
    std::uint64_t acc = st.acc;
    if ((st.bytes & 7) != 0) acc += word_hash(st.word, st.bytes >> 3);
    digest_ += mix64(acc ^ mix64(key.first ^ mix64(key.second)) ^
                     mix64(st.bytes));
    bytes_ += st.bytes;
    open_.erase(it);
  }

  /// (combined digest, delivered bytes); every stream must have closed.
  std::pair<std::uint64_t, std::uint64_t> result() {
    std::lock_guard lock(mu_);
    EXPECT_TRUE(open_.empty()) << open_.size() << " streams never closed";
    return {digest_, bytes_};
  }

 private:
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  struct Stream {
    std::uint64_t bytes = 0;
    std::uint64_t acc = 0;
    std::uint64_t word = 0;  // pending bytes of the current word
  };

  static Key key_of(const FiveTuple& t) {
    return {(static_cast<std::uint64_t>(t.src_ip) << 32) | t.dst_ip,
            (static_cast<std::uint64_t>(t.src_port) << 24) |
                (static_cast<std::uint64_t>(t.dst_port) << 8) | t.protocol};
  }
  static std::uint64_t word_hash(std::uint64_t word, std::uint64_t index) {
    return mix64(word ^ (index * 0x9e3779b97f4a7c15ULL));
  }

  std::mutex mu_;  // handlers run on every shard's worker
  std::map<Key, Stream> open_;
  std::uint64_t digest_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace scap
