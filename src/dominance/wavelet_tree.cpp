#include "dominance/wavelet_tree.hpp"

#include <algorithm>

namespace semilocal {

// One pad word beyond size_ keeps rank1(size_) in bounds when size_ is a
// multiple of kWordBits (the query mask is 0 there, so the value is exact).
RankBitvector::RankBitvector(Index bits)
    : size_(bits),
      bits_(static_cast<std::size_t>(ceil_div(std::max<Index>(bits, 1), kWordBits)) + 1, 0),
      ranks_(bits_.size() + 1, 0) {}

void RankBitvector::finalize() {
  Index running = 0;
  for (std::size_t w = 0; w < bits_.size(); ++w) {
    ranks_[w] = running;
    running += popcount(bits_[w]);
  }
  ranks_[bits_.size()] = running;
}

WaveletTree::WaveletTree(const Permutation& p) : n_(p.size()) {
  levels_ = 0;
  while ((Index{1} << levels_) < std::max<Index>(n_, 1)) ++levels_;
  if (n_ == 0) return;
  level_bits_.reserve(static_cast<std::size_t>(levels_));
  level_zeros_.resize(static_cast<std::size_t>(levels_), 0);
  // Values in original position order; stably partitioned level by level.
  std::vector<std::int32_t> cur(p.row_to_col());
  std::vector<std::int32_t> next(cur.size());
  for (int level = 0; level < levels_; ++level) {
    const int bit_index = levels_ - 1 - level;  // MSB first
    RankBitvector bv(n_);
    Index zeros = 0;
    for (Index pos = 0; pos < n_; ++pos) {
      const bool bit = (cur[static_cast<std::size_t>(pos)] >> bit_index) & 1;
      if (bit) {
        bv.set(pos);
      } else {
        ++zeros;
      }
    }
    bv.finalize();
    // Stable partition for the next level: zeros first, then ones.
    Index zero_cursor = 0;
    Index one_cursor = zeros;
    for (Index pos = 0; pos < n_; ++pos) {
      const auto value = cur[static_cast<std::size_t>(pos)];
      if ((value >> bit_index) & 1) {
        next[static_cast<std::size_t>(one_cursor++)] = value;
      } else {
        next[static_cast<std::size_t>(zero_cursor++)] = value;
      }
    }
    level_zeros_[static_cast<std::size_t>(level)] = zeros;
    level_bits_.push_back(std::move(bv));
    std::swap(cur, next);
  }
}

Index WaveletTree::count_less(Index lo, Index hi, Index j) const {
  if (j <= 0 || lo >= hi) return 0;
  if (j >= n_) return hi - lo;
  Index count = 0;
  for (int level = 0; level < levels_ && lo < hi; ++level) {
    const int bit_index = levels_ - 1 - level;
    const auto& bv = level_bits_[static_cast<std::size_t>(level)];
    const Index zeros = level_zeros_[static_cast<std::size_t>(level)];
    const Index lo1 = bv.rank1(lo);
    const Index hi1 = bv.rank1(hi);
    if ((j >> bit_index) & 1) {
      // Everything in the 0-subtree is < j; continue into the 1-subtree.
      count += (hi - hi1) - (lo - lo1);
      lo = zeros + lo1;
      hi = zeros + hi1;
    } else {
      // Continue into the 0-subtree.
      lo = lo - lo1;
      hi = hi - hi1;
    }
  }
  return count;
}

Index WaveletTree::count(Index i, Index j) const {
  if (n_ == 0) return 0;
  const Index lo = std::clamp<Index>(i, 0, n_);
  const Index jj = std::clamp<Index>(j, 0, n_);
  return count_less(lo, n_, jj);
}

namespace {

struct FlatLayout {
  int levels = 0;
  std::size_t words_per_level = 0;
  std::size_t supers_per_level = 0;
  std::size_t node_words = 0;
  std::size_t pool_words = 0;
};

FlatLayout flat_layout(Index n) {
  FlatLayout l;
  while ((Index{1} << l.levels) < std::max<Index>(n, 1)) ++l.levels;
  if (n == 0) return l;
  constexpr Index kSuperWords = 8;
  // One pad word beyond n keeps rank1(n) in bounds when n is a multiple of
  // kWordBits (the query mask is 0 there, so the value is exact).
  l.words_per_level = static_cast<std::size_t>(ceil_div(n, kWordBits)) + 1;
  l.supers_per_level = static_cast<std::size_t>(
      ceil_div(static_cast<Index>(l.words_per_level), kSuperWords));
  const std::size_t L = static_cast<std::size_t>(l.levels);
  const std::size_t bit_words = L * l.words_per_level;
  const std::size_t super_words = L * l.supers_per_level;
  // u16 offsets packed four to a word, padded up to a word boundary.
  const std::size_t offset_words = static_cast<std::size_t>(
      ceil_div(static_cast<Index>(L * l.words_per_level), 4));
  // Node directory: one u64 per tree node, sum over levels of 2^l. Positions
  // pack into 32 bits, which bounds supported orders at 2^32 - 1 -- far past
  // any kernel that fits in memory.
  l.node_words = (std::size_t{1} << L) - 1;
  l.pool_words = bit_words + super_words + offset_words + l.node_words;
  return l;
}

constexpr std::uint64_t pack_node(Index end, Index ones) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(end)) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ones)) << 32);
}

}  // namespace

FlatWaveletTree::FlatWaveletTree(const Permutation& p) : n_(p.size()) {
  const FlatLayout layout = flat_layout(n_);
  levels_ = layout.levels;
  if (n_ == 0) return;
  words_per_level_ = layout.words_per_level;
  supers_per_level_ = layout.supers_per_level;
  pool_ = std::vector<Word>(layout.pool_words, 0);
  level_zeros_.assign(static_cast<std::size_t>(levels_), 0);

  Word* const bits = pool_.data();
  std::uint64_t* const super_ranks =
      pool_.data() + static_cast<std::size_t>(levels_) * words_per_level_;
  auto* const word_offsets = reinterpret_cast<std::uint16_t*>(
      super_ranks + static_cast<std::size_t>(levels_) * supers_per_level_);

  // Values in original position order; stably partitioned level by level
  // (the same traversal as WaveletTree -- only the storage and the loop
  // shape differ). Level 0 reads the permutation in place.
  const auto n = static_cast<std::size_t>(n_);
  const std::int32_t* cur = p.row_to_col().data();
  std::vector<std::int32_t> next(n);
  std::vector<std::int32_t> spare(n);
  std::vector<std::int32_t> ones_scratch(n);
  for (int level = 0; level < levels_; ++level) {
    const int bit_index = levels_ - 1 - level;  // MSB first
    Word* const level_bits = bits + static_cast<std::size_t>(level) * words_per_level_;
    // One branchless pass: each value is stored at both the zero cursor
    // (into `next`) and the ones cursor (into scratch), and only the cursor
    // matching its bit advances -- a random bit never steers a branch. The
    // level's bits accumulate in a register and land one word at a time.
    std::int32_t* const out = next.data();
    std::int32_t* const out1 = ones_scratch.data();
    std::size_t zero_cursor = 0;
    std::size_t one_cursor = 0;
    for (std::size_t base = 0; base < n; base += kWordBits) {
      const std::size_t width = std::min<std::size_t>(kWordBits, n - base);
      Word word = 0;
      for (std::size_t b = 0; b < width; ++b) {
        const std::int32_t value = cur[base + b];
        const auto bit = static_cast<std::size_t>(
            (static_cast<std::uint32_t>(value) >> bit_index) & 1u);
        word |= static_cast<Word>(bit) << b;
        out[zero_cursor] = value;
        out1[one_cursor] = value;
        zero_cursor += bit ^ 1u;
        one_cursor += bit;
      }
      level_bits[base / kWordBits] = word;
    }
    // Stable partition for the next level: zeros first, then ones.
    std::copy(out1, out1 + one_cursor, out + zero_cursor);
    level_zeros_[static_cast<std::size_t>(level)] = static_cast<Index>(zero_cursor);
    cur = out;
    next.swap(spare);  // the buffer read this level is written next level

    // Rank directory for this level: u64 cumulative count at each 8-word
    // superblock boundary, u16 offset of each word within its superblock.
    std::uint64_t* const level_supers =
        super_ranks + static_cast<std::size_t>(level) * supers_per_level_;
    std::uint16_t* const level_offsets =
        word_offsets + static_cast<std::size_t>(level) * words_per_level_;
    std::uint64_t running = 0;
    std::uint64_t super_base = 0;
    for (std::size_t w = 0; w < words_per_level_; ++w) {
      if (w % static_cast<std::size_t>(kSuperWords) == 0) {
        super_base = running;
        level_supers[w / static_cast<std::size_t>(kSuperWords)] = running;
      }
      level_offsets[w] = static_cast<std::uint16_t>(running - super_base);
      running += static_cast<std::uint64_t>(popcount(level_bits[w]));
    }
  }

  // Node directory: per node (heap order) the end of its interval in the
  // level's concatenated array and rank1 of that end -- the constants a
  // suffix query's upper boundary needs, precomputed once. Children split a
  // node at its one-count: 0-children pack before zeros(level), 1-children
  // after, both in node order.
  if (levels_ == 0) return;  // n == 1: no levels, no nodes
  auto* const nodes = const_cast<std::uint64_t*>(node_dir());
  nodes[0] = pack_node(n_, rank1(0, n_));
  for (int level = 0; level + 1 < levels_; ++level) {
    const std::size_t base = (std::size_t{1} << level) - 1;
    const std::size_t child_base = (std::size_t{1} << (level + 1)) - 1;
    const Index zeros = level_zeros_[static_cast<std::size_t>(level)];
    for (std::size_t p = 0; p < (std::size_t{1} << level); ++p) {
      const std::uint64_t e = nodes[base + p];
      const auto end = static_cast<Index>(e & 0xffffffffu);
      const auto ones = static_cast<Index>(e >> 32);
      const Index end0 = end - ones;   // 0-child: zeros of this level before end
      const Index end1 = zeros + ones;  // 1-child: shifted past all the zeros
      nodes[child_base + 2 * p] = pack_node(end0, rank1(level + 1, end0));
      nodes[child_base + 2 * p + 1] = pack_node(end1, rank1(level + 1, end1));
    }
  }
}

Index FlatWaveletTree::rank1(int level, Index pos) const {
  const auto w = static_cast<std::size_t>(pos / kWordBits);
  const std::size_t lw = static_cast<std::size_t>(level) * words_per_level_;
  return static_cast<Index>(
      supers()[static_cast<std::size_t>(level) * supers_per_level_ +
               w / static_cast<std::size_t>(kSuperWords)] +
      offsets()[lw + w] +
      static_cast<std::uint64_t>(popcount(
          pool_[lw + w] & low_mask(static_cast<int>(pos % kWordBits)))));
}

Index FlatWaveletTree::count_suffix_less(Index lo, Index j) const {
  // Branchless descent: j's bits are data-dependent coin flips, so an
  // if/else here costs a ~50% misprediction per level. Select both subtree
  // mappings with a mask instead; the loop has a fixed trip count. The
  // suffix range's upper boundary follows j's bit path exactly, so its end
  // and rank come from one node-directory load (heap walk 2k+1+bit) -- the
  // lo rank is the only chain: section pointers walk level to level with no
  // per-rank multiplies.
  const Word* bits = pool_.data();
  const std::uint64_t* sup = supers();
  const std::uint16_t* off = offsets();
  const std::uint64_t* nodes = node_dir();
  const Index* zeros_at = level_zeros_.data();
  Index count = 0;
  std::size_t node = 0;
  for (int level = 0; level < levels_; ++level) {
    const auto wl = static_cast<std::size_t>(lo) / kWordBits;
    const Index lo1 = static_cast<Index>(
        sup[wl >> 3] + off[wl] +
        static_cast<std::uint64_t>(
            popcount(bits[wl] & low_mask(static_cast<int>(lo % kWordBits)))));
    const std::uint64_t entry = nodes[node];
    const Index end_zeros = static_cast<Index>(entry & 0xffffffffu) -
                            static_cast<Index>(entry >> 32);
    const Index lo0 = lo - lo1;
    const Index bit = (j >> (levels_ - 1 - level)) & 1;
    const Index mask = -bit;  // all-ones when descending into the 1-subtree
    // The 0-subtree's occupants of [lo, end) are all < j when j's bit is 1.
    count += (end_zeros - lo0) & mask;
    lo = ((zeros_at[level] + lo1) & mask) | (lo0 & ~mask);
    node = 2 * node + 1 + static_cast<std::size_t>(bit);
    bits += words_per_level_;
    sup += supers_per_level_;
    off += words_per_level_;
  }
  return count;
}

Index FlatWaveletTree::count(Index i, Index j) const {
  if (n_ == 0) return 0;
  const Index lo = std::clamp<Index>(i, 0, n_);
  const Index jj = std::clamp<Index>(j, 0, n_);
  if (jj <= 0 || lo >= n_) return 0;
  if (jj >= n_) return n_ - lo;
  return count_suffix_less(lo, jj);
}

void FlatWaveletTree::count_many(const Index* is, const Index* js, Index* out,
                                 std::size_t queries) const {
  if (n_ == 0) {
    std::fill(out, out + queries, Index{0});
    return;
  }
  // Several descents in flight: one descent is bound by the serial per-level
  // chain (word load -> popcount -> next lo), so interleaving a small fixed
  // number of independent queries lets the out-of-order core overlap their
  // loads. The lane count always runs full width -- tail lanes are parked
  // at lo == 0 with j == 0 (every bit 0, contribution masked to nothing) --
  // so the inner loop has a fixed shape the compiler unrolls completely.
  // Six lanes measured fastest on the reference machine: with the node
  // directory halving per-lane loads, four lanes under-fill the load ports
  // and eight spill too much lane state to the stack.
  constexpr std::size_t kLanes = 6;
  const Word* const bits0 = pool_.data();
  const std::uint64_t* const sup0 = supers();
  const std::uint16_t* const off0 = offsets();
  const std::uint64_t* const nodes = node_dir();
  const Index* const zeros_at = level_zeros_.data();
  std::size_t q = 0;
  while (q < queries) {
    const std::size_t lanes = std::min(kLanes, queries - q);
    Index lo[kLanes];
    Index jj[kLanes];
    Index acc[kLanes];
    std::size_t node[kLanes];
    for (std::size_t t = 0; t < kLanes; ++t) {
      lo[t] = 0;
      jj[t] = 0;
      acc[t] = 0;
      node[t] = 0;
    }
    for (std::size_t t = 0; t < lanes; ++t) {
      const Index i = std::clamp<Index>(is[q + t], 0, n_);
      const Index j = std::clamp<Index>(js[q + t], 0, n_);
      // Same trivial cases count() peels off; parked lanes stay parked.
      if (j <= 0 || i >= n_) continue;
      if (j >= n_) {
        acc[t] = n_ - i;
        continue;
      }
      lo[t] = i;
      jj[t] = j;
    }
    const Word* bits = bits0;
    const std::uint64_t* sup = sup0;
    const std::uint16_t* off = off0;
    for (int level = 0; level < levels_; ++level) {
      const Index zeros = zeros_at[level];
      const int shift = levels_ - 1 - level;
      for (std::size_t t = 0; t < kLanes; ++t) {
        const auto wl = static_cast<std::size_t>(lo[t]) / kWordBits;
        const Index lo1 = static_cast<Index>(
            sup[wl >> 3] + off[wl] +
            static_cast<std::uint64_t>(popcount(
                bits[wl] & low_mask(static_cast<int>(lo[t] % kWordBits)))));
        const std::uint64_t entry = nodes[node[t]];
        const Index end_zeros = static_cast<Index>(entry & 0xffffffffu) -
                                static_cast<Index>(entry >> 32);
        const Index lo0 = lo[t] - lo1;
        const Index bit = (jj[t] >> shift) & 1;
        const Index mask = -bit;
        acc[t] += (end_zeros - lo0) & mask;
        lo[t] = ((zeros + lo1) & mask) | (lo0 & ~mask);
        node[t] = 2 * node[t] + 1 + static_cast<std::size_t>(bit);
      }
      bits += words_per_level_;
      sup += supers_per_level_;
      off += words_per_level_;
    }
    for (std::size_t t = 0; t < lanes; ++t) {
      out[q + t] = acc[t];
    }
    q += lanes;
  }
}

std::size_t FlatWaveletTree::resident_bytes() const {
  return pool_.size() * sizeof(Word) + level_zeros_.size() * sizeof(Index);
}

std::size_t FlatWaveletTree::projected_bytes(Index n) {
  const FlatLayout layout = flat_layout(n);
  return layout.pool_words * sizeof(Word) +
         static_cast<std::size_t>(layout.levels) * sizeof(Index);
}

}  // namespace semilocal
