// Content-digest tests: golden PairKey names (the on-disk kernel file and
// corpus index.tsv key contract), sensitivity of sequence_digest to every
// symbol bit, position and length across the lane, pair and tail
// boundaries, and a 2^20-sequence 64-bit collision sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "engine/key.hpp"

namespace semilocal {
namespace {

/// Seeded full-range 32-bit symbols: every bit of a symbol is exercised.
Sequence random_symbols(std::size_t length, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Sequence out(length);
  for (Symbol& s : out) s = static_cast<Symbol>(static_cast<std::uint32_t>(rng()));
  return out;
}

TEST(PairKeyDigest, GoldenNamesArePinned) {
  // These names are file names in existing kernel stores and key columns in
  // corpus index.tsv files. A change here orphans every stored kernel.
  EXPECT_EQ(make_pair_key({}, {}).hex(), "3fdf455f9dcf1e623fdf455f9dcf1e62");

  EXPECT_EQ(make_pair_key(to_sequence("ACGTACGTA"), to_sequence("GATTACA")).hex(),
            "30f75f336d91f054f5294ea6e637e2aa");

  Sequence a(100);
  Sequence b(67);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<Symbol>(static_cast<std::uint32_t>(i * 2654435761U));
  }
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<Symbol>(i % 4);
  EXPECT_EQ(make_pair_key(a, b).hex(), "83fe006c4f8b735626de1cbc22823f6b");
}

TEST(PairKeyDigest, PairKeyFromDigestsMatchesMakePairKey) {
  const Sequence a = random_symbols(37, 1);
  const Sequence b = random_symbols(64, 2);
  const PairKey key = pair_key(sequence_digest(a), static_cast<Index>(a.size()),
                               sequence_digest(b), static_cast<Index>(b.size()));
  EXPECT_EQ(key, make_pair_key(a, b));
  EXPECT_EQ(key.hex(), make_pair_key(a, b).hex());
}

TEST(PairKeyDigest, EverySingleSymbolChangeChangesTheDigest) {
  // Lengths 0-70 cross the two-symbol word, the four-lane stripe (8
  // symbols), the partial last stripe and the odd tail symbol many times.
  for (std::size_t length = 0; length <= 70; ++length) {
    const Sequence base = random_symbols(length, 100 + length);
    std::set<std::uint64_t> seen = {sequence_digest(base)};
    std::size_t variants = 1;
    for (std::size_t pos = 0; pos < length; ++pos) {
      for (const std::uint32_t flip : {1U, 0x80000000U, 0xffffffffU}) {
        Sequence changed = base;
        changed[pos] = static_cast<Symbol>(static_cast<std::uint32_t>(changed[pos]) ^ flip);
        seen.insert(sequence_digest(changed));
        ++variants;
      }
    }
    // Every variant is distinct from the base and from each other.
    EXPECT_EQ(seen.size(), variants) << "length " << length;
  }
}

TEST(PairKeyDigest, BitsAboveTheLowByteCount) {
  EXPECT_NE(sequence_digest(Sequence{0}), sequence_digest(Sequence{0x100}));
  EXPECT_NE(sequence_digest(Sequence{0}),
            sequence_digest(Sequence{static_cast<Symbol>(std::uint32_t{1} << 31)}));
  // Each of bits 8-31 alone, at every position of sequences that reach
  // both words of a lane and the tail.
  for (std::size_t length = 1; length <= 17; ++length) {
    const Sequence zeros(length, 0);
    const std::uint64_t zero_digest = sequence_digest(zeros);
    std::set<std::uint64_t> seen = {zero_digest};
    for (std::size_t pos = 0; pos < length; ++pos) {
      for (int bit = 8; bit < 32; ++bit) {
        Sequence s = zeros;
        s[pos] = static_cast<Symbol>(std::uint32_t{1} << bit);
        EXPECT_TRUE(seen.insert(sequence_digest(s)).second)
            << "length " << length << " pos " << pos << " bit " << bit;
      }
    }
  }
}

TEST(PairKeyDigest, SwappingAdjacentSymbolsChangesTheDigest) {
  for (std::size_t length = 2; length <= 70; ++length) {
    const Sequence base = random_symbols(length, 500 + length);
    const std::uint64_t digest = sequence_digest(base);
    for (std::size_t pos = 0; pos + 1 < length; ++pos) {
      Sequence swapped = base;
      std::swap(swapped[pos], swapped[pos + 1]);
      EXPECT_NE(sequence_digest(swapped), digest) << "length " << length << " pos " << pos;
    }
  }
}

TEST(PairKeyDigest, LengthIsPartOfTheDigest) {
  // Runs of zeros differ only in length.
  std::set<std::uint64_t> seen;
  for (std::size_t length = 0; length <= 70; ++length) {
    EXPECT_TRUE(seen.insert(sequence_digest(Sequence(length, 0))).second) << length;
  }
}

TEST(PairKeyDigest, NoCollisionsAcrossTwoToTheTwentyDistinctSequences) {
  // DNA-like symbols; the first ten carry the sequence number in base 4, so
  // the sequences are distinct by construction (and highly structured, the
  // harder case for a weak mix). The rest is seeded noise, 10-32 symbols.
  constexpr std::uint32_t kCount = 1U << 20;
  std::mt19937_64 rng(20);
  std::vector<std::uint64_t> digests;
  digests.reserve(kCount);
  Sequence s;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    s.resize(10 + i % 23);
    for (std::size_t k = 0; k < 10; ++k) s[k] = static_cast<Symbol>((i >> (2 * k)) & 3);
    for (std::size_t k = 10; k < s.size(); ++k) s[k] = static_cast<Symbol>(rng() & 3);
    digests.push_back(sequence_digest(s));
  }
  std::sort(digests.begin(), digests.end());
  EXPECT_EQ(std::adjacent_find(digests.begin(), digests.end()), digests.end());
}

}  // namespace
}  // namespace semilocal
