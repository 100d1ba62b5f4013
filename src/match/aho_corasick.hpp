// Aho-Corasick multi-pattern matching (paper §6.5 uses it for the NIDS-style
// workload with 2,120 Snort web-attack content strings).
//
// The goto function is a dense table with the BFS failure links folded in,
// so each scanned byte costs one table load. Three things keep it small and
// cheap:
//  - Byte classes. Bytes that occur in no pattern share class 0, and every
//    byte that does occur gets a class of its own, so a row holds one entry
//    per class instead of 256 (at most 256 classes, for a corpus that uses
//    every byte value).
//  - Pre-multiplied states. A state is its row offset (node * classes), so
//    the root is 0 and a step is one add and one load. The top bit of a
//    table entry flags "this state has outputs"; the output lists are read
//    only when it is set.
//  - Root skip. While the automaton sits at the root it advances over bytes
//    whose root transition is the root; the serial state chain starts at the
//    first byte that leaves the root. When exactly one byte value leaves the
//    root (a corpus whose patterns all begin with one marker byte, like the
//    NIDS corpus in corpus.hpp), that byte is found with std::memchr, which
//    libc vectorizes. Otherwise the bytes are looked up eight at a time in a
//    256-entry "leaves root" table. The choice is made once per build, from
//    the patterns alone.
// Streaming scans carry the state across chunk boundaries (what the paper's
// `overlap` chunk option otherwise compensates for).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/function_ref.hpp"

namespace scap::match {

class AhoCorasick {
 public:
  /// Called on each match: (pattern index, end offset in the scanned data).
  /// Non-owning: the callable only needs to outlive the scan call.
  using MatchFn = FunctionRef<void(std::size_t, std::size_t)>;

  AhoCorasick() = default;
  explicit AhoCorasick(const std::vector<std::string>& patterns) {
    build(patterns);
  }

  /// (Re)build the automaton. Empty patterns are ignored. Throws
  /// std::length_error if a state offset would not fit in 31 bits.
  void build(const std::vector<std::string>& patterns);

  /// Scan a buffer from the root state; returns total matches.
  std::uint64_t scan(std::span<const std::uint8_t> data,
                     MatchFn on_match = nullptr) const;

  /// Streaming scan: `state` carries the automaton position across calls
  /// (initialize to root_state()). Returns matches in this piece.
  std::uint64_t scan_stream(std::uint32_t& state,
                            std::span<const std::uint8_t> data,
                            MatchFn on_match = nullptr) const;

  static constexpr std::uint32_t root_state() { return 0; }
  std::size_t pattern_count() const { return pattern_lengths_.size(); }
  std::size_t state_count() const { return nodes_; }

 private:
  static constexpr std::uint32_t kOutputFlag = 0x80000000u;
  static constexpr std::uint32_t kNoOutput = 0xffffffffu;

  std::uint32_t nodes_ = 0;
  std::uint32_t classes_ = 0;
  std::array<std::uint8_t, 256> class_of_{};
  // leaves_root_[byte] != 0 iff the root's transition on `byte` is not root.
  std::array<std::uint8_t, 256> leaves_root_{};
  // The one byte value that leaves the root, or -1 when none or several do.
  int start_byte_ = -1;
  // delta_[state + class_of_[byte]] = next state, kOutputFlag set when the
  // next state has outputs.
  std::vector<std::uint32_t> delta_;
  // out_heads_[node] = index into out_links_ (or kNoOutput).
  std::vector<std::uint32_t> out_heads_;
  // Flattened output lists: (pattern index, next index) chains.
  struct OutLink {
    std::uint32_t pattern;
    std::uint32_t next;
  };
  std::vector<OutLink> out_links_;
  std::vector<std::uint32_t> pattern_lengths_;
};

}  // namespace scap::match
