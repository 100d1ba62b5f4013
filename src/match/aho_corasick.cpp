#include "match/aho_corasick.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string_view>

namespace scap::match {

namespace {

// Trie nodes = distinct non-empty prefixes: over the sorted patterns, each
// adds its length minus its common prefix with the one before it.
std::uint64_t count_trie_nodes(const std::vector<std::string>& patterns) {
  std::vector<std::string_view> sorted(patterns.begin(), patterns.end());
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t nodes = 1;
  std::string_view prev;
  for (const std::string_view pat : sorted) {
    const auto common = static_cast<std::size_t>(
        std::mismatch(prev.begin(), prev.end(), pat.begin(), pat.end()).first -
        prev.begin());
    nodes += pat.size() - common;
    prev = pat;
  }
  return nodes;
}

// Index of the first byte in data[i, end) that leaves the root, or `end`.
std::size_t skip_root(const std::uint8_t* leaves, const std::uint8_t* data,
                      std::size_t i, std::size_t end) {
  // Eight independent loads per step; the exact byte is found below.
  while (end - i >= 8) {
    const unsigned any = leaves[data[i]] | leaves[data[i + 1]] |
                         leaves[data[i + 2]] | leaves[data[i + 3]] |
                         leaves[data[i + 4]] | leaves[data[i + 5]] |
                         leaves[data[i + 6]] | leaves[data[i + 7]];
    if (any != 0) break;
    i += 8;
  }
  while (i < end && leaves[data[i]] == 0) ++i;
  return i;
}

// Index of the first `byte` in data[i, end), or `end`; needs i < end.
std::size_t find_byte(const std::uint8_t* data, std::size_t i,
                      std::size_t end, int byte) {
  const void* hit = std::memchr(data + i, byte, end - i);
  return hit != nullptr ? static_cast<std::size_t>(
                              static_cast<const std::uint8_t*>(hit) - data)
                        : end;
}

}  // namespace

void AhoCorasick::build(const std::vector<std::string>& patterns) {
  // Byte classes: unused bytes share class 0 unless every byte is used.
  std::array<bool, 256> used{};
  for (const std::string& pat : patterns) {
    for (const char ch : pat) used[static_cast<std::uint8_t>(ch)] = true;
  }
  const bool all_used = std::all_of(used.begin(), used.end(),
                                    [](bool u) { return u; });
  std::array<std::uint8_t, 256> class_of{};
  std::uint32_t classes = all_used ? 0 : 1;
  for (std::size_t b = 0; b < 256; ++b) {
    if (used[b]) class_of[b] = static_cast<std::uint8_t>(classes++);
  }

  // Every state offset (node * classes) must leave the output flag clear.
  const std::uint64_t nodes = count_trie_nodes(patterns);
  if ((nodes - 1) * classes >= kOutputFlag) {
    throw std::length_error(
        "AhoCorasick: automaton too large for 31-bit states");
  }

  // Phase 1: trie over classes; delta[node * classes + class] holds the
  // child's node index, 0 (the root, never a child) for "no child".
  std::vector<std::uint32_t> delta(nodes * classes, 0);
  std::vector<std::uint32_t> out_heads(nodes, kNoOutput);
  std::vector<OutLink> out_links;
  std::vector<std::uint32_t> pattern_lengths;
  std::uint32_t next_node = 1;
  for (const std::string& pat : patterns) {
    if (pat.empty()) continue;
    std::uint32_t node = 0;
    for (const char ch : pat) {
      std::uint32_t& child =
          delta[std::size_t{node} * classes +
                class_of[static_cast<std::uint8_t>(ch)]];
      if (child == 0) child = next_node++;
      node = child;
    }
    const auto pattern_idx = static_cast<std::uint32_t>(pattern_lengths.size());
    pattern_lengths.push_back(static_cast<std::uint32_t>(pat.size()));
    out_links.push_back({pattern_idx, out_heads[node]});
    out_heads[node] = static_cast<std::uint32_t>(out_links.size() - 1);
  }

  // Phase 2: BFS in depth order. A node's failure row is complete before the
  // node is reached, so a missing child copies the failure's transition and
  // a present child's failure is the failure's transition on that class.
  std::vector<std::uint32_t> fail(nodes, 0);
  std::vector<std::uint32_t> order;
  order.reserve(nodes);
  for (std::uint32_t c = 0; c < classes; ++c) {
    if (delta[c] != 0) order.push_back(delta[c]);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const std::uint32_t node = order[head];
    std::uint32_t* row = &delta[std::size_t{node} * classes];
    const std::uint32_t* fail_row = &delta[std::size_t{fail[node]} * classes];
    for (std::uint32_t c = 0; c < classes; ++c) {
      if (row[c] == 0) {
        row[c] = fail_row[c];
        continue;
      }
      const std::uint32_t child = row[c];
      fail[child] = fail_row[c];
      // The child also reports everything its failure state reports.
      const std::uint32_t inherited = out_heads[fail[child]];
      if (inherited != kNoOutput) {
        if (out_heads[child] == kNoOutput) {
          out_heads[child] = inherited;
        } else {
          std::uint32_t tail = out_heads[child];
          while (out_links[tail].next != kNoOutput) tail = out_links[tail].next;
          out_links[tail].next = inherited;
        }
      }
      order.push_back(child);
    }
  }

  // Phase 3: node indices become flagged row offsets.
  for (std::uint32_t& next : delta) {
    next = next * classes | (out_heads[next] != kNoOutput ? kOutputFlag : 0);
  }

  nodes_ = static_cast<std::uint32_t>(nodes);
  classes_ = classes;
  class_of_ = class_of;
  int leaving = 0;
  int last_leaving = -1;
  for (std::size_t b = 0; b < 256; ++b) {
    leaves_root_[b] = delta[class_of[b]] != 0 ? 1 : 0;
    if (leaves_root_[b] != 0) {
      ++leaving;
      last_leaving = static_cast<int>(b);
    }
  }
  start_byte_ = leaving == 1 ? last_leaving : -1;
  delta_ = std::move(delta);
  out_heads_ = std::move(out_heads);
  out_links_ = std::move(out_links);
  pattern_lengths_ = std::move(pattern_lengths);
}

std::uint64_t AhoCorasick::scan_stream(std::uint32_t& state,
                                       std::span<const std::uint8_t> data,
                                       MatchFn on_match) const {
  if (nodes_ == 0) return 0;
  const std::uint8_t* bytes = data.data();
  const std::size_t size = data.size();
  const std::uint32_t* delta = delta_.data();
  std::uint64_t matches = 0;
  std::uint32_t s = state;
  std::size_t i = 0;
  while (i < size) {
    if (s == root_state()) {
      i = start_byte_ >= 0 ? find_byte(bytes, i, size, start_byte_)
                           : skip_root(leaves_root_.data(), bytes, i, size);
      if (i == size) break;
    }
    do {
      s = delta[s + class_of_[bytes[i++]]];
      if (s & kOutputFlag) [[unlikely]] {
        s &= ~kOutputFlag;
        for (std::uint32_t link = out_heads_[s / classes_]; link != kNoOutput;
             link = out_links_[link].next) {
          ++matches;
          if (on_match) on_match(out_links_[link].pattern, i);
        }
      }
    } while (s != root_state() && i < size);
  }
  state = s;
  return matches;
}

std::uint64_t AhoCorasick::scan(std::span<const std::uint8_t> data,
                                MatchFn on_match) const {
  std::uint32_t state = root_state();
  return scan_stream(state, data, on_match);
}

}  // namespace scap::match
