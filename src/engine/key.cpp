#include "engine/key.hpp"

#include <array>
#include <bit>

namespace semilocal {
namespace {

// xxHash64's primes: odd 64-bit constants with well-spread bits.
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

/// One lane step. For a fixed lane state it is a bijection of `word`, and
/// for a fixed word a bijection of the state, so a changed word always
/// changes the lane.
constexpr std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

constexpr std::uint64_t merge(std::uint64_t h, std::uint64_t lane) {
  return (h ^ lane_round(0, lane)) * kPrime1 + kPrime4;
}

/// Two symbols as one word, built arithmetically (not loaded through a
/// pointer cast) so the digest is the same on every byte order.
std::uint64_t pair_word(const Symbol* s) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(s[0])) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(s[1])) << 32;
}

}  // namespace

std::uint64_t sequence_digest(SequenceView s) {
  // Four independent lanes each take one two-symbol word per step, so the
  // multiply chains overlap instead of serialising on one accumulator.
  std::array<std::uint64_t, 4> lane = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  const Symbol* p = s.data();
  const std::size_t pairs = s.size() / 2;
  std::size_t w = 0;
  for (; w + 4 <= pairs; w += 4, p += 8) {
    lane[0] = lane_round(lane[0], pair_word(p));
    lane[1] = lane_round(lane[1], pair_word(p + 2));
    lane[2] = lane_round(lane[2], pair_word(p + 4));
    lane[3] = lane_round(lane[3], pair_word(p + 6));
  }
  // A partial last stripe feeds the first lanes.
  for (std::size_t k = 0; w < pairs; ++w, ++k, p += 2) {
    lane[k] = lane_round(lane[k], pair_word(p));
  }

  std::uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) + std::rotl(lane[2], 12) +
                    std::rotl(lane[3], 18);
  for (const std::uint64_t v : lane) h = merge(h, v);
  if (s.size() % 2 != 0) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(*p)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
  }
  h += static_cast<std::uint64_t>(s.size()) * kPrime5;

  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

PairKey make_pair_key(SequenceView a, SequenceView b) {
  return pair_key(sequence_digest(a), static_cast<Index>(a.size()), sequence_digest(b),
                  static_cast<Index>(b.size()));
}

std::string PairKey::hex() const {
  static constexpr std::array<char, 16> kDigits = {'0', '1', '2', '3', '4', '5', '6', '7',
                                                   '8', '9', 'a', 'b', 'c', 'd', 'e', 'f'};
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(15 - i)] = kDigits[(hash_a >> (4 * i)) & 0xf];
    out[static_cast<std::size_t>(31 - i)] = kDigits[(hash_b >> (4 * i)) & 0xf];
  }
  return out;
}

}  // namespace semilocal
