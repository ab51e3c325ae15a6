#include "bitlcs/bitwise_combing.hpp"

#include <algorithm>
#include <vector>

#include "bitlcs/encoding.hpp"
#include "util/parallel.hpp"

namespace semilocal {
namespace {

// --- Single anti-diagonal step inside one w x w block -----------------------
//
// Upper-left steps (shift k = w-1 .. 0) pair h-bit (u + k) with v-bit u for
// u in [0, w-k); lower-right steps (k = 1 .. w-1) pair h-bit (u - k) with
// v-bit u for u in [k, w). `a` is the (possibly negated) reversed-a word,
// `va`/`vb` are validity masks forcing mismatches in padded cells.

template <bool Optimized>
inline void step_upper_left(Word& h, Word& v, Word a, Word va, Word b, Word vb, int k) {
  const Word mask = low_mask(kWordBits - k);
  const Word hk = h >> k;
  if constexpr (Optimized) {
    // s = !(a^b) computed as na^b thanks to the negated-a encoding.
    const Word s = ((a >> k) ^ b) & (va >> k) & vb;
    const Word v_new = (hk | ~mask) & (v | (s & mask));
    h ^= (v ^ v_new) << k;
    v = v_new;
  } else {
    const Word s = ~((a >> k) ^ b) & (va >> k) & vb;
    Word c = mask & (s | (~hk & v));
    const Word v_old = v;
    v = (~c & v) | (c & hk);
    c <<= k;
    h = (~c & h) | (c & (v_old << k));
  }
}

template <bool Optimized>
inline void step_lower_right(Word& h, Word& v, Word a, Word va, Word b, Word vb, int k) {
  const Word mask = ~low_mask(k);
  const Word hk = h << k;
  if constexpr (Optimized) {
    const Word s = ((a << k) ^ b) & (va << k) & vb;
    const Word v_new = (hk | ~mask) & (v | (s & mask));
    h ^= (v ^ v_new) >> k;
    v = v_new;
  } else {
    const Word s = ~((a << k) ^ b) & (va << k) & vb;
    Word c = mask & (s | (~hk & v));
    const Word v_old = v;
    v = (~c & v) | (c & hk);
    c >>= k;
    h = (~c & h) | (c & (v_old >> k));
  }
}

// All 2w-1 internal anti-diagonals of one block, fully in registers
// (bit_new_1 / bit_new_2).
template <bool Optimized>
inline void process_block(Word& h, Word& v, Word a, Word va, Word b, Word vb) {
  for (int k = kWordBits - 1; k >= 0; --k) step_upper_left<Optimized>(h, v, a, va, b, vb, k);
  for (int k = 1; k < kWordBits; ++k) step_lower_right<Optimized>(h, v, a, va, b, vb, k);
}

// One internal step applied to a block with immediate load/store (bit_old):
// st in [0, 2w-2], the block-internal anti-diagonal index.
inline void apply_single_step(Word& h, Word& v, Word a, Word va, Word b, Word vb, int st) {
  if (st < kWordBits) {
    step_upper_left<false>(h, v, a, va, b, vb, kWordBits - 1 - st);
  } else {
    step_lower_right<false>(h, v, a, va, b, vb, st - (kWordBits - 1));
  }
}

struct State {
  const BinaryEncoding* e;
  std::vector<Word> h;
  std::vector<Word> v;
  const Word* a;  // a_rev or a_rev_neg depending on variant
};

// Register-blocked segment: blocks j in [0, len) pair h-word (hi + j) with
// v-word (vi + j); each block is processed to completion.
template <bool Optimized, bool Parallel>
inline void run_segment_blocked(State& st, Index len, Index hi, Index vi) {
  const auto body = [&](Index j) {
    Word h_vec = st.h[static_cast<std::size_t>(hi + j)];
    Word v_vec = st.v[static_cast<std::size_t>(vi + j)];
    const Word a_vec = st.a[hi + j];
    const Word va = st.e->a_valid[static_cast<std::size_t>(hi + j)];
    const Word b_vec = st.e->b_fwd[static_cast<std::size_t>(vi + j)];
    const Word vb = st.e->b_valid[static_cast<std::size_t>(vi + j)];
    process_block<Optimized>(h_vec, v_vec, a_vec, va, b_vec, vb);
    st.h[static_cast<std::size_t>(hi + j)] = h_vec;
    st.v[static_cast<std::size_t>(vi + j)] = v_vec;
  };
  if constexpr (Parallel) {
#pragma omp for schedule(static)
    for (Index j = 0; j < len; ++j) body(j);
  } else {
    for (Index j = 0; j < len; ++j) body(j);
  }
}

// Interleaved segment (kInterleaved): groups of four blocks run their
// internal steps in lockstep, all in registers. Each step of a group is four
// independent dependency chains, which a superscalar core executes in
// parallel; the tail of a segment falls back to single blocks.
template <bool Parallel>
inline void run_segment_interleaved(State& st, Index len, Index hi, Index vi) {
  constexpr Index kGroup = 4;
  const Index groups = len / kGroup;
  const auto group_body = [&](Index g) {
    const Index j0 = g * kGroup;
    Word h[kGroup];
    Word v[kGroup];
    Word a[kGroup];
    Word va[kGroup];
    Word b[kGroup];
    Word vb[kGroup];
    for (Index u = 0; u < kGroup; ++u) {
      const Index j = j0 + u;
      h[u] = st.h[static_cast<std::size_t>(hi + j)];
      v[u] = st.v[static_cast<std::size_t>(vi + j)];
      a[u] = st.a[hi + j];
      va[u] = st.e->a_valid[static_cast<std::size_t>(hi + j)];
      b[u] = st.e->b_fwd[static_cast<std::size_t>(vi + j)];
      vb[u] = st.e->b_valid[static_cast<std::size_t>(vi + j)];
    }
    for (int k = kWordBits - 1; k >= 0; --k) {
      for (Index u = 0; u < kGroup; ++u) {
        step_upper_left<true>(h[u], v[u], a[u], va[u], b[u], vb[u], k);
      }
    }
    for (int k = 1; k < kWordBits; ++k) {
      for (Index u = 0; u < kGroup; ++u) {
        step_lower_right<true>(h[u], v[u], a[u], va[u], b[u], vb[u], k);
      }
    }
    for (Index u = 0; u < kGroup; ++u) {
      const Index j = j0 + u;
      st.h[static_cast<std::size_t>(hi + j)] = h[u];
      st.v[static_cast<std::size_t>(vi + j)] = v[u];
    }
  };
  if constexpr (Parallel) {
#pragma omp for schedule(static) nowait
    for (Index g = 0; g < groups; ++g) group_body(g);
  } else {
    for (Index g = 0; g < groups; ++g) group_body(g);
  }
  // Tail blocks, one at a time (only the master would race here; the
  // single-block path below is also worksharing in parallel mode).
  const Index done = groups * kGroup;
  const auto tail_body = [&](Index j) {
    Word h_vec = st.h[static_cast<std::size_t>(hi + j)];
    Word v_vec = st.v[static_cast<std::size_t>(vi + j)];
    process_block<true>(h_vec, v_vec, st.a[hi + j],
                        st.e->a_valid[static_cast<std::size_t>(hi + j)],
                        st.e->b_fwd[static_cast<std::size_t>(vi + j)],
                        st.e->b_valid[static_cast<std::size_t>(vi + j)]);
    st.h[static_cast<std::size_t>(hi + j)] = h_vec;
    st.v[static_cast<std::size_t>(vi + j)] = v_vec;
  };
  if constexpr (Parallel) {
#pragma omp for schedule(static)
    for (Index j = done; j < len; ++j) tail_body(j);
  } else {
    for (Index j = done; j < len; ++j) tail_body(j);
  }
}

// Unblocked segment (bit_old): every internal step re-loads and re-stores
// the block's words, paying the full memory traffic the optimization of
// Section 4.4 removes. Auto-vectorization across blocks is disabled so this
// baseline stays word-at-a-time, as Listing 8 is written: otherwise the
// compiler fuses the independent blocks of a step into SIMD lanes and the
// "unoptimized" variant silently becomes a different (wider) algorithm.
template <bool Parallel>
__attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
inline void run_segment_old(State& st, Index len, Index hi, Index vi) {
  for (int step = 0; step <= 2 * (kWordBits - 1); ++step) {
    const auto body = [&](Index j) {
      Word h_vec = st.h[static_cast<std::size_t>(hi + j)];
      Word v_vec = st.v[static_cast<std::size_t>(vi + j)];
      apply_single_step(h_vec, v_vec, st.a[hi + j],
                        st.e->a_valid[static_cast<std::size_t>(hi + j)],
                        st.e->b_fwd[static_cast<std::size_t>(vi + j)],
                        st.e->b_valid[static_cast<std::size_t>(vi + j)], step);
      st.h[static_cast<std::size_t>(hi + j)] = h_vec;
      st.v[static_cast<std::size_t>(vi + j)] = v_vec;
    };
    if constexpr (Parallel) {
#pragma omp for schedule(static)
      for (Index j = 0; j < len; ++j) body(j);
    } else {
      for (Index j = 0; j < len; ++j) body(j);
    }
  }
}

// Three-phase sweep over the block grid (M <= N, mirroring Listing 4).
template <BitVariant V, bool Parallel>
void sweep(State& st) {
  const Index big_m = st.e->mw;
  const Index big_n = st.e->nw;
  const Index full = big_n - big_m + 1;
  const auto segment = [&](Index len, Index hi, Index vi) {
    if constexpr (V == BitVariant::kOld) {
      run_segment_old<Parallel>(st, len, hi, vi);
    } else if constexpr (V == BitVariant::kBlocked) {
      run_segment_blocked<false, Parallel>(st, len, hi, vi);
    } else if constexpr (V == BitVariant::kInterleaved) {
      run_segment_interleaved<Parallel>(st, len, hi, vi);
    } else {
      run_segment_blocked<true, Parallel>(st, len, hi, vi);
    }
  };
  const auto phases = [&] {
    for (Index d = 0; d < big_m - 1; ++d) segment(d + 1, big_m - 1 - d, 0);
    for (Index k = 0; k < full; ++k) segment(big_m, 0, k);
    Index vi = full;
    for (Index len = big_m - 1; len >= 1; --len) segment(len, 0, vi++);
  };
  if constexpr (Parallel) {
#pragma omp parallel if (big_m * big_n * kWordBits * kWordBits >= kBitCombGrainCells)
    phases();
  } else {
    phases();
  }
}

template <BitVariant V, bool Parallel>
Index run(const BinaryEncoding& e) {
  State st;
  st.e = &e;
  st.h.assign(static_cast<std::size_t>(e.mw), ~Word{0});
  st.v.assign(static_cast<std::size_t>(e.nw), 0);
  st.a = (V == BitVariant::kOptimized || V == BitVariant::kInterleaved)
             ? e.a_rev_neg.data()
             : e.a_rev.data();
  sweep<V, Parallel>(st);
  // Padded strands keep their initial 1-bit, so the padded-length formula
  // m_pad - popcount(h) equals the true score m - popcount(real h bits).
  return e.mw * kWordBits - popcount(std::span<const Word>{st.h});
}

// ---------------------------------------------------------------------------
// Alphabet-generalized kernel: bit-plane match masks, binary strand state.
// ---------------------------------------------------------------------------

constexpr int kMaxPlanes = 16;

struct PlaneBlock {
  Word na[kMaxPlanes];  // negated reversed a planes
  Word b[kMaxPlanes];
  Word va = 0;
  Word vb = 0;
  int planes = 0;
};

// Match word for shift k (upper-left orientation): all planes must agree.
inline Word plane_match_ul(const PlaneBlock& blk, int k) {
  Word s = ~Word{0};
  for (int p = 0; p < blk.planes; ++p) {
    s &= (blk.na[p] >> k) ^ blk.b[p];
  }
  return s & (blk.va >> k) & blk.vb;
}

inline Word plane_match_lr(const PlaneBlock& blk, int k) {
  Word s = ~Word{0};
  for (int p = 0; p < blk.planes; ++p) {
    s &= (blk.na[p] << k) ^ blk.b[p];
  }
  return s & (blk.va << k) & blk.vb;
}

inline void process_block_planes(Word& h, Word& v, const PlaneBlock& blk) {
  for (int k = kWordBits - 1; k >= 0; --k) {
    const Word mask = low_mask(kWordBits - k);
    const Word hk = h >> k;
    const Word s = plane_match_ul(blk, k);
    const Word v_new = (hk | ~mask) & (v | (s & mask));
    h ^= (v ^ v_new) << k;
    v = v_new;
  }
  for (int k = 1; k < kWordBits; ++k) {
    const Word mask = ~low_mask(k);
    const Word hk = h << k;
    const Word s = plane_match_lr(blk, k);
    const Word v_new = (hk | ~mask) & (v | (s & mask));
    h ^= (v ^ v_new) >> k;
    v = v_new;
  }
}

struct PlaneState {
  const PlaneEncoding* e;
  std::vector<Word> h;
  std::vector<Word> v;
};

template <bool Parallel>
void run_segment_planes(PlaneState& st, Index len, Index hi, Index vi) {
  const auto body = [&](Index j) {
    const auto& e = *st.e;
    PlaneBlock blk;
    blk.planes = e.planes;
    for (int p = 0; p < e.planes; ++p) {
      blk.na[p] = e.a_rev_neg_planes[static_cast<std::size_t>(p) * static_cast<std::size_t>(e.mw) +
                                     static_cast<std::size_t>(hi + j)];
      blk.b[p] = e.b_planes[static_cast<std::size_t>(p) * static_cast<std::size_t>(e.nw) +
                            static_cast<std::size_t>(vi + j)];
    }
    blk.va = e.a_valid[static_cast<std::size_t>(hi + j)];
    blk.vb = e.b_valid[static_cast<std::size_t>(vi + j)];
    Word h_vec = st.h[static_cast<std::size_t>(hi + j)];
    Word v_vec = st.v[static_cast<std::size_t>(vi + j)];
    process_block_planes(h_vec, v_vec, blk);
    st.h[static_cast<std::size_t>(hi + j)] = h_vec;
    st.v[static_cast<std::size_t>(vi + j)] = v_vec;
  };
  if constexpr (Parallel) {
#pragma omp for schedule(static)
    for (Index j = 0; j < len; ++j) body(j);
  } else {
    for (Index j = 0; j < len; ++j) body(j);
  }
}

template <bool Parallel>
Index run_planes(const PlaneEncoding& e) {
  PlaneState st;
  st.e = &e;
  st.h.assign(static_cast<std::size_t>(e.mw), ~Word{0});
  st.v.assign(static_cast<std::size_t>(e.nw), 0);
  const Index big_m = e.mw;
  const Index big_n = e.nw;
  const Index full = big_n - big_m + 1;
  const auto phases = [&] {
    for (Index d = 0; d < big_m - 1; ++d) {
      run_segment_planes<Parallel>(st, d + 1, big_m - 1 - d, 0);
    }
    for (Index k = 0; k < full; ++k) run_segment_planes<Parallel>(st, big_m, 0, k);
    Index vi = full;
    for (Index len = big_m - 1; len >= 1; --len) run_segment_planes<Parallel>(st, len, 0, vi++);
  };
  if constexpr (Parallel) {
#pragma omp parallel if (big_m * big_n * kWordBits * kWordBits >= kBitCombGrainCells)
    phases();
  } else {
    phases();
  }
  return e.mw * kWordBits - popcount(std::span<const Word>{st.h});
}

}  // namespace

Index lcs_bit_combing_alphabet(SequenceView a, SequenceView b, Symbol alphabet,
                               bool parallel) {
  if (a.empty() || b.empty()) return 0;
  if (a.size() > b.size()) std::swap(a, b);
  const PlaneEncoding e = encode_plane_pair(a, b, alphabet);
  return parallel ? run_planes<true>(e) : run_planes<false>(e);
}

Index lcs_bit_combing(SequenceView a, SequenceView b, BitVariant variant, bool parallel) {
  if (a.empty() || b.empty()) return 0;
  if (a.size() > b.size()) std::swap(a, b);
  const BinaryEncoding e = encode_binary_pair(a, b);
  switch (variant) {
    case BitVariant::kOld:
      return parallel ? run<BitVariant::kOld, true>(e) : run<BitVariant::kOld, false>(e);
    case BitVariant::kBlocked:
      return parallel ? run<BitVariant::kBlocked, true>(e)
                      : run<BitVariant::kBlocked, false>(e);
    case BitVariant::kOptimized:
      return parallel ? run<BitVariant::kOptimized, true>(e)
                      : run<BitVariant::kOptimized, false>(e);
    case BitVariant::kInterleaved:
      return parallel ? run<BitVariant::kInterleaved, true>(e)
                      : run<BitVariant::kInterleaved, false>(e);
  }
  return 0;
}

}  // namespace semilocal
