#include "match/aho_corasick.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>
#include <utility>

#include "base/rng.hpp"
#include "match/corpus.hpp"

namespace scap::match {
namespace {

std::span<const std::uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(AhoCorasick, FindsSimplePatterns) {
  AhoCorasick ac({"he", "she", "his", "hers"});
  // The classic Aho-Corasick example: "ushers" contains she, he, hers.
  EXPECT_EQ(ac.scan(bytes_of("ushers")), 3u);
}

TEST(AhoCorasick, ReportsPatternIndexAndPosition) {
  AhoCorasick ac({"abc", "bcd"});
  std::set<std::pair<std::size_t, std::size_t>> hits;
  ac.scan(bytes_of("xabcdx"),
          [&](std::size_t pat, std::size_t end) { hits.insert({pat, end}); });
  EXPECT_TRUE(hits.contains({0, 4}));  // "abc" ends at 4
  EXPECT_TRUE(hits.contains({1, 5}));  // "bcd" ends at 5
  EXPECT_EQ(hits.size(), 2u);
}

TEST(AhoCorasick, NoFalsePositives) {
  AhoCorasick ac({"needle"});
  EXPECT_EQ(ac.scan(bytes_of("haystack without the n-word")), 0u);
  EXPECT_EQ(ac.scan(bytes_of("needl")), 0u);
  EXPECT_EQ(ac.scan(bytes_of("eedle")), 0u);
}

TEST(AhoCorasick, OverlappingOccurrences) {
  AhoCorasick ac({"aa"});
  EXPECT_EQ(ac.scan(bytes_of("aaaa")), 3u);
}

TEST(AhoCorasick, PatternIsPrefixOfAnother) {
  AhoCorasick ac({"abc", "abcdef"});
  EXPECT_EQ(ac.scan(bytes_of("abcdef")), 2u);
}

TEST(AhoCorasick, EmptyAutomatonAndEmptyInput) {
  AhoCorasick empty;
  EXPECT_EQ(empty.scan(bytes_of("anything")), 0u);
  AhoCorasick ac({"x"});
  EXPECT_EQ(ac.scan({}), 0u);
}

TEST(AhoCorasick, BinaryBytes) {
  std::string pat("\x00\xff\x01", 3);
  AhoCorasick ac({pat});
  std::string hay("zz\x00\xff\x01zz", 7);
  EXPECT_EQ(ac.scan(bytes_of(hay)), 1u);
}

TEST(AhoCorasick, StreamingAcrossChunkBoundary) {
  AhoCorasick ac({"boundary"});
  std::uint32_t state = AhoCorasick::root_state();
  std::uint64_t total = 0;
  total += ac.scan_stream(state, bytes_of("xxxxbou"));
  total += ac.scan_stream(state, bytes_of("ndaryxxx"));
  EXPECT_EQ(total, 1u);
  // A fresh whole-buffer scan of each piece separately misses it.
  EXPECT_EQ(ac.scan(bytes_of("xxxxbou")) + ac.scan(bytes_of("ndaryxxx")), 0u);
}

TEST(AhoCorasick, DuplicatePatternsCountTwice) {
  AhoCorasick ac({"dup", "dup"});
  EXPECT_EQ(ac.scan(bytes_of("a dup here")), 2u);
}

TEST(AhoCorasick, LargeCorpusScan) {
  auto patterns = make_corpus({.pattern_count = 2120});
  AhoCorasick ac(patterns);
  EXPECT_EQ(ac.pattern_count(), 2120u);
  // Plant three patterns in filler.
  std::string hay(50000, 'q');
  hay.replace(100, patterns[0].size(), patterns[0]);
  hay.replace(20000, patterns[500].size(), patterns[500]);
  hay.replace(49000, patterns[2119].size(), patterns[2119]);
  EXPECT_EQ(ac.scan(bytes_of(hay)), 3u);
}

TEST(AhoCorasick, RejectsStatesBeyond31Bits) {
  // Random 256-byte patterns over all 256 byte values: 256 classes and
  // about 10.2 M trie nodes, past the 2^23 nodes whose row offsets fit.
  Rng rng(31);
  std::vector<std::string> patterns(40000, std::string(256, '\0'));
  for (auto& pat : patterns) {
    for (char& ch : pat) ch = static_cast<char>(rng.bounded(256));
  }
  AhoCorasick ac;
  EXPECT_THROW(ac.build(patterns), std::length_error);
}

// Differential check against a brute-force matcher on seeded corpora.
using Hits = std::vector<std::pair<std::size_t, std::size_t>>;  // (end, pat)

Hits brute_force(const std::vector<std::string>& patterns,
                 const std::vector<std::uint8_t>& hay) {
  Hits hits;
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const std::string& pat = patterns[p];
    for (std::size_t end = pat.size(); end <= hay.size(); ++end) {
      if (std::memcmp(hay.data() + end - pat.size(), pat.data(), pat.size()) ==
          0) {
        hits.emplace_back(end, p);
      }
    }
  }
  std::sort(hits.begin(), hits.end());
  return hits;
}

// Scans `hay` as consecutive pieces cut at `cuts`; offsets are rebased onto
// the whole buffer.
Hits scan_pieces(const AhoCorasick& ac, const std::vector<std::uint8_t>& hay,
                 const std::vector<std::size_t>& cuts, std::uint32_t& state) {
  Hits hits;
  state = AhoCorasick::root_state();
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= cuts.size(); ++i) {
    const std::size_t end = i < cuts.size() ? cuts[i] : hay.size();
    const std::span<const std::uint8_t> piece(hay.data() + begin, end - begin);
    const std::size_t before = hits.size();
    const std::uint64_t n =
        ac.scan_stream(state, piece, [&](std::size_t pat, std::size_t off) {
          hits.emplace_back(begin + off, pat);
        });
    EXPECT_EQ(n, hits.size() - before);
    begin = end;
  }
  std::sort(hits.begin(), hits.end());
  return hits;
}

std::string random_pattern(Rng& rng, const std::string& alphabet,
                           std::size_t min_len, std::size_t max_len) {
  std::string pat(static_cast<std::size_t>(rng.range(
                      static_cast<std::int64_t>(min_len),
                      static_cast<std::int64_t>(max_len))),
                  '\0');
  for (char& ch : pat) ch = alphabet[rng.bounded(alphabet.size())];
  return pat;
}

// Haystack of alternating runs: bytes 0xf0..0xf3 (outside the smaller
// corpora, so the root-skip loop runs) and bytes of `alphabet`; then some
// patterns are planted whole.
std::vector<std::uint8_t> make_haystack(Rng& rng, const std::string& alphabet,
                                        const std::vector<std::string>& pats,
                                        std::size_t size) {
  std::vector<std::uint8_t> hay(size);
  for (std::size_t i = 0; i < size;) {
    const bool quiet = rng.bounded(2) == 0;
    for (std::uint64_t run = rng.bounded(40); run > 0 && i < size; --run, ++i) {
      hay[i] = quiet ? static_cast<std::uint8_t>(0xf0 + rng.bounded(4))
                     : static_cast<std::uint8_t>(
                           alphabet[rng.bounded(alphabet.size())]);
    }
  }
  for (int i = 0; i < 40; ++i) {
    const std::string& pat = pats[rng.bounded(pats.size())];
    if (pat.size() > size) continue;
    const std::size_t at = rng.bounded(size - pat.size() + 1);
    std::memcpy(hay.data() + at, pat.data(), pat.size());
  }
  return hay;
}

void check_against_brute_force(const std::vector<std::string>& patterns,
                               const std::string& alphabet, Rng& rng) {
  const std::vector<std::uint8_t> hay =
      make_haystack(rng, alphabet, patterns, 3000);
  const AhoCorasick ac(patterns);
  const Hits expected = brute_force(patterns, hay);
  ASSERT_FALSE(expected.empty());

  Hits whole;
  EXPECT_EQ(ac.scan(hay,
                    [&](std::size_t pat, std::size_t end) {
                      whole.emplace_back(end, pat);
                    }),
            expected.size());
  std::sort(whole.begin(), whole.end());
  EXPECT_EQ(whole, expected);

  std::uint32_t whole_state = AhoCorasick::root_state();
  EXPECT_EQ(ac.scan_stream(whole_state, hay), expected.size());

  for (std::size_t cut = 0; cut <= hay.size(); ++cut) {
    std::uint32_t state = 0;
    ASSERT_EQ(scan_pieces(ac, hay, {cut}, state), expected) << "cut " << cut;
    ASSERT_EQ(state, whole_state) << "cut " << cut;
  }
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::size_t> cuts(2 + rng.bounded(12));
    for (auto& c : cuts) c = rng.bounded(hay.size() + 1);
    std::sort(cuts.begin(), cuts.end());
    std::uint32_t state = 0;
    ASSERT_EQ(scan_pieces(ac, hay, cuts, state), expected) << "trial " << trial;
    ASSERT_EQ(state, whole_state) << "trial " << trial;
  }
}

TEST(AhoCorasickDifferential, BinaryBytes) {
  Rng rng(101);
  const std::string alphabet("\x00\xff\x01\x80\x7f\n\r", 7);
  std::vector<std::string> pats;
  for (int i = 0; i < 60; ++i) {
    pats.push_back(random_pattern(rng, alphabet, 2, 7));
  }
  check_against_brute_force(pats, alphabet, rng);
}

TEST(AhoCorasickDifferential, OneBytePatterns) {
  Rng rng(102);
  const std::string alphabet = "abcd";
  std::vector<std::string> pats = {"a", "c"};
  for (int i = 0; i < 30; ++i) {
    pats.push_back(random_pattern(rng, alphabet, 1, 5));
  }
  check_against_brute_force(pats, alphabet, rng);
}

TEST(AhoCorasickDifferential, DuplicatePatterns) {
  Rng rng(103);
  const std::string alphabet = "xyzw";
  std::vector<std::string> pats;
  for (int i = 0; i < 25; ++i) {
    const std::string pat = random_pattern(rng, alphabet, 2, 6);
    for (std::uint64_t k = 1 + rng.bounded(3); k > 0; --k) pats.push_back(pat);
  }
  check_against_brute_force(pats, alphabet, rng);
}

TEST(AhoCorasickDifferential, PrefixesAndSuffixes) {
  Rng rng(104);
  const std::string alphabet = "pqrs";
  std::vector<std::string> pats;
  for (int i = 0; i < 15; ++i) {
    const std::string pat = random_pattern(rng, alphabet, 4, 9);
    const std::size_t k = 1 + rng.bounded(pat.size() - 1);
    pats.push_back(pat);
    pats.push_back(pat.substr(0, k));  // proper prefix
    pats.push_back(pat.substr(k));     // proper suffix
  }
  check_against_brute_force(pats, alphabet, rng);
}

TEST(AhoCorasickDifferential, AllByteValues) {
  Rng rng(105);
  std::string alphabet(256, '\0');
  for (std::size_t b = 0; b < 256; ++b) alphabet[b] = static_cast<char>(b);
  // Every byte value starts some pattern, so there are 256 classes and no
  // byte skips the root.
  std::vector<std::string> pats;
  for (std::size_t b = 0; b < 256; ++b) {
    pats.push_back(static_cast<char>(b) + random_pattern(rng, alphabet, 0, 2));
  }
  for (int i = 0; i < 40; ++i) {
    pats.push_back(random_pattern(rng, alphabet, 1, 4));
  }
  check_against_brute_force(pats, alphabet, rng);
}

TEST(AhoCorasickDifferential, OneStartByte) {
  Rng rng(106);
  // Every pattern begins with `start`, so it is the only byte that leaves the
  // root and the scan finds it with memchr. The byte also occurs inside
  // patterns and, through the alphabet, alone in the haystack, where no
  // pattern follows it.
  for (const char start : {'\x00', '#', '\xff'}) {
    SCOPED_TRACE(static_cast<int>(static_cast<std::uint8_t>(start)));
    const std::string alphabet = std::string(1, start) + "ab\x01";
    std::vector<std::string> pats;
    for (int i = 0; i < 40; ++i) {
      pats.push_back(start + random_pattern(rng, alphabet, 1, 6));
    }
    check_against_brute_force(pats, alphabet, rng);
  }
  // One pattern with a second start byte: two bytes leave the root, so the
  // scan keeps the table loop, and a prefilter on either byte misses hits.
  const std::string alphabet = "#ab\x01";
  std::vector<std::string> pats = {"b#a"};
  for (int i = 0; i < 40; ++i) {
    pats.push_back('#' + random_pattern(rng, alphabet, 1, 6));
  }
  check_against_brute_force(pats, alphabet, rng);
}

TEST(Corpus, DeterministicAndMarked) {
  auto a = make_corpus({.pattern_count = 100});
  auto b = make_corpus({.pattern_count = 100});
  EXPECT_EQ(a, b);
  for (const auto& pat : a) {
    EXPECT_EQ(pat.front(), kPatternMarker);
    EXPECT_GE(pat.size(), 6u);
  }
  std::set<std::string> uniq(a.begin(), a.end());
  EXPECT_EQ(uniq.size(), a.size());
}

}  // namespace
}  // namespace scap::match
