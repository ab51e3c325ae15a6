// Content-addressed identity of a comparison job.
//
// The engine keys every kernel by the *contents* of the two input strings,
// not by caller-supplied names: two requests for the same (a, b) pair -- from
// different connections, or the same corpus record under two ids -- hit the
// same cache entry and the same on-disk kernel file. A key is the pair of
// 64-bit sequence digests of the symbol data plus both lengths; lengths are
// kept explicit so hash collisions between strings of different sizes are
// structurally impossible and so the store can size-check files cheaply.
//
// The digest is word-parallel (an xxHash64-style construction over the
// 32-bit symbols): four independent 64-bit lanes each absorb one two-symbol
// word per step, so a warm read's digest costs a few multiply chains in
// flight at once rather than one serial multiply per input byte. Words are
// assembled arithmetically from symbol values, never by reinterpreting
// memory, so hex() names are the same on every byte order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "util/types.hpp"

namespace semilocal {

/// Identity of an ordered (a, b) comparison. Equality-comparable, hashable,
/// and renderable as a fixed-width hex string for on-disk filenames.
struct PairKey {
  std::uint64_t hash_a = 0;
  std::uint64_t hash_b = 0;
  Index len_a = 0;
  Index len_b = 0;

  friend bool operator==(const PairKey&, const PairKey&) = default;

  /// 32 hex digits (hash_a, hash_b); stable across runs and platforms.
  [[nodiscard]] std::string hex() const;
};

/// Digests the symbol data of both strings into a PairKey.
PairKey make_pair_key(SequenceView a, SequenceView b);

/// The 64-bit digest of a symbol sequence (the one make_pair_key uses per
/// side). Every symbol bit and the length reach the result.
std::uint64_t sequence_digest(SequenceView s);

/// A PairKey from per-side digests already in hand, for callers that pair
/// one side with many others: pair_key(sequence_digest(a), |a|,
/// sequence_digest(b), |b|) == make_pair_key(a, b).
constexpr PairKey pair_key(std::uint64_t hash_a, Index len_a, std::uint64_t hash_b,
                           Index len_b) {
  return PairKey{.hash_a = hash_a, .hash_b = hash_b, .len_a = len_a, .len_b = len_b};
}

struct PairKeyHash {
  std::size_t operator()(const PairKey& k) const noexcept {
    // hash_a/hash_b are already well-mixed digests; fold in the lengths.
    std::uint64_t h = k.hash_a ^ (k.hash_b * 0x9e3779b97f4a7c15ULL);
    h ^= static_cast<std::uint64_t>(k.len_a) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= static_cast<std::uint64_t>(k.len_b) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

}  // namespace semilocal
