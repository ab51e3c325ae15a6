#include "core/iterative_combing.hpp"

#include <omp.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/comb_kernels.hpp"
#include "core/workspace.hpp"
#include "util/bits.hpp"
#include "util/parallel.hpp"

// The branching baseline must stay scalar even at -O3 -march=native (see the
// comment at comb_cells_branching). GCC disables the vectorizers with a
// function attribute; Clang does not implement optimize("...") and instead
// takes per-loop pragmas.
#if defined(__clang__)
#define SEMILOCAL_NO_VECTORIZE_FN
#define SEMILOCAL_NO_VECTORIZE_LOOP \
  _Pragma("clang loop vectorize(disable) interleave(disable)")
#elif defined(__GNUC__)
#define SEMILOCAL_NO_VECTORIZE_FN \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#define SEMILOCAL_NO_VECTORIZE_LOOP
#else
#define SEMILOCAL_NO_VECTORIZE_FN
#define SEMILOCAL_NO_VECTORIZE_LOOP
#endif

namespace semilocal {
namespace {

// Row height of the serial sweep's bands (comb_bands). A band's anti-diagonal
// touches 8 bytes per cell with 16-bit strands on 16-bit codes (16 bytes with
// 32-bit strands on Symbols), so at this height the diagonal in flight stays
// in L1d instead of streaming whole-grid diagonals from L2. Read off the
// BM_CombBand rows of bench_micro; a constant, not an option.
constexpr Index kCombBandRows = 2048;

// Converts final strand arrays to the kernel permutation (Listing 1 phase 3):
// strand h[l] exits at right-edge position n + l, strand v[r] at bottom-edge
// position r.
template <typename StrandT>
Permutation build_kernel(const StrandT* h, const StrandT* v, Index m, Index n) {
  std::vector<std::int32_t> row_to_col(static_cast<std::size_t>(m + n));
  for (Index l = 0; l < m; ++l) {
    row_to_col[static_cast<std::size_t>(h[l])] = static_cast<std::int32_t>(n + l);
  }
  for (Index r = 0; r < n; ++r) {
    row_to_col[static_cast<std::size_t>(v[r])] = static_cast<std::int32_t>(r);
  }
  return Permutation::from_row_to_col(std::move(row_to_col));
}

// Wire positions along the anti-diagonal front after processing all cell
// anti-diagonals < d, walking the front bottom-left to top-right. Slots are
// numbered h = 0..m-1 (array index), v = m..m+n-1. The front interleaves
// the two families: unprocessed left-edge rows first, then alternating
// (v-wire below, h-wire right of) each staircase cell, then the untouched
// top-edge columns. Partial braids of the grid compose under the sticky
// product only in these position coordinates.
std::vector<Index> front_positions(Index m, Index n, Index d) {
  std::vector<Index> order;
  order.reserve(static_cast<std::size_t>(m + n));
  for (Index s = 0; s < m - d; ++s) order.push_back(s);            // left edge
  for (Index t = 0; t < d - m; ++t) order.push_back(m + t);        // bottom exits
  for (Index k = std::max<Index>(d - m, 0); k <= d - 1 && k < n; ++k) {
    order.push_back(m + k);          // v wire below staircase cell
    order.push_back(m - d + k);      // h wire right of staircase cell
  }
  for (Index t = d; t < n; ++t) order.push_back(m + t);            // top edge
  return order;
}

// Position index of each slot along a front.
std::vector<Index> positions_of_slots(Index m, Index n, Index d) {
  const auto order = front_positions(m, n, d);
  std::vector<Index> pos(static_cast<std::size_t>(m + n));
  for (Index p = 0; p < m + n; ++p) pos[static_cast<std::size_t>(order[static_cast<std::size_t>(p)])] = p;
  return pos;
}

// Sub-braid of one phase as a permutation from entry-front positions to
// exit-front positions. The strand arrays must have been INITIALIZED with
// entry-front position ids (not slot numbers): the combing condition
// h > v tests "crossed within this phase" only when ids are ordered by the
// entry-front wire order. `out_pos` maps slots to exit-front positions
// (nullptr selects the natural final boundary order -- bottom edge v exits
// 0..n-1, then right edge h exits n..n+m-1, i.e. kernel endpoint numbering).
template <typename StrandT>
Permutation build_subbraid(const StrandT* h, const StrandT* v, Index m, Index n,
                           const std::vector<Index>* out_pos) {
  const auto out_of = [&](Index slot) {
    if (out_pos) return (*out_pos)[static_cast<std::size_t>(slot)];
    return slot < m ? n + slot : slot - m;
  };
  std::vector<std::int32_t> row_to_col(static_cast<std::size_t>(m + n));
  for (Index l = 0; l < m; ++l) {
    row_to_col[static_cast<std::size_t>(h[l])] = static_cast<std::int32_t>(out_of(l));
  }
  for (Index r = 0; r < n; ++r) {
    row_to_col[static_cast<std::size_t>(v[r])] = static_cast<std::int32_t>(out_of(m + r));
  }
  return Permutation::from_row_to_col(std::move(row_to_col));
}

// One anti-diagonal segment of cells: cell j uses horizontal slot hi + j and
// vertical slot vi + j (Listing 4's `inloop`). `a_rev` is the reversed a so
// that both strings are read with ascending unit stride.
//
// The branching variant is the paper's `semi_antidiag` baseline. Modern
// compilers targeting AVX-512 happily if-convert the conditional swap into
// masked vector stores, which would make the two variants identical code;
// vectorization is disabled here so the baseline keeps the scalar
// conditional-store behaviour the paper measures against.
template <typename StrandT>
SEMILOCAL_NO_VECTORIZE_FN
void comb_cells_branching(const CombSymbol<StrandT>* __restrict a_rev,
                          const CombSymbol<StrandT>* __restrict b,
                          StrandT* __restrict h, StrandT* __restrict v,
                          Index len, Index hi, Index vi) {
  SEMILOCAL_NO_VECTORIZE_LOOP
  for (Index j = 0; j < len; ++j) {
    const StrandT hs = h[hi + j];
    const StrandT vs = v[vi + j];
    if (a_rev[hi + j] == b[vi + j] || hs > vs) {
      h[hi + j] = vs;
      v[vi + j] = hs;
    }
  }
}

// Inner-loop formulations of the branchless update.
enum class CombMode {
  kBranching,  // the paper's semi_antidiag baseline
  kKernel,     // dispatched SIMD kernel layer (semi_antidiag_SIMD)
  kMinMax,     // autovectorized masked min/max (ablation of the formulation)
};

template <typename StrandT, CombMode Mode>
inline void comb_cells(CombCellsFn<StrandT> fn,
                       const CombSymbol<StrandT>* __restrict a_rev,
                       const CombSymbol<StrandT>* __restrict b,
                       StrandT* __restrict h, StrandT* __restrict v,
                       Index len, Index hi, Index vi) {
  if constexpr (Mode == CombMode::kKernel) {
    fn(a_rev + hi, b + vi, h + hi, v + vi, len);
  } else if constexpr (Mode == CombMode::kMinMax) {
    // A mismatch cell sorts the pair (min up, max left); a match cell always
    // swaps. Both cases are pairwise min/max plus a masked blend.
#pragma omp simd
    for (Index j = 0; j < len; ++j) {
      const StrandT hs = h[hi + j];
      const StrandT vs = v[vi + j];
      const bool match = a_rev[hi + j] == b[vi + j];
      const StrandT mn = std::min(hs, vs);
      const StrandT mx = std::max(hs, vs);
      h[hi + j] = match ? vs : mn;
      v[vi + j] = match ? hs : mx;
    }
  } else {
    comb_cells_branching(a_rev, b, h, v, len, hi, vi);
  }
}

// Worksharing version; must be invoked by every thread of an enclosing
// OpenMP parallel region. The barrier at segment end is the
// per-anti-diagonal synchronisation of Listing 4. The kernel mode splits the
// segment into the same contiguous static chunks `omp for schedule(static)`
// would produce and runs the dispatched kernel on this thread's chunk.
template <typename StrandT, CombMode Mode, bool NoWait>
inline void comb_cells_par(CombCellsFn<StrandT> fn,
                           const CombSymbol<StrandT>* __restrict a_rev,
                           const CombSymbol<StrandT>* __restrict b,
                           StrandT* __restrict h, StrandT* __restrict v,
                           Index len, Index hi, Index vi) {
  if constexpr (Mode == CombMode::kKernel) {
    const Index nt = omp_get_num_threads();
    const Index tid = omp_get_thread_num();
    const Index begin = len * tid / nt;
    const Index end = len * (tid + 1) / nt;
    if (end > begin) {
      fn(a_rev + hi + begin, b + vi + begin, h + hi + begin, v + vi + begin,
         end - begin);
    }
    if constexpr (!NoWait) {
#pragma omp barrier
    }
  } else if constexpr (Mode == CombMode::kMinMax) {
    if constexpr (NoWait) {
#pragma omp for simd schedule(static) nowait
      for (Index j = 0; j < len; ++j) {
        const StrandT hs = h[hi + j];
        const StrandT vs = v[vi + j];
        const bool match = a_rev[hi + j] == b[vi + j];
        const StrandT mn = std::min(hs, vs);
        const StrandT mx = std::max(hs, vs);
        h[hi + j] = match ? vs : mn;
        v[vi + j] = match ? hs : mx;
      }
    } else {
#pragma omp for simd schedule(static)
      for (Index j = 0; j < len; ++j) {
        const StrandT hs = h[hi + j];
        const StrandT vs = v[vi + j];
        const bool match = a_rev[hi + j] == b[vi + j];
        const StrandT mn = std::min(hs, vs);
        const StrandT mx = std::max(hs, vs);
        h[hi + j] = match ? vs : mn;
        v[vi + j] = match ? hs : mx;
      }
    }
  } else {  // CombMode::kBranching
    if constexpr (NoWait) {
#pragma omp for schedule(static) nowait
      for (Index j = 0; j < len; ++j) {
        const StrandT hs = h[hi + j];
        const StrandT vs = v[vi + j];
        if (a_rev[hi + j] == b[vi + j] || hs > vs) {
          h[hi + j] = vs;
          v[vi + j] = hs;
        }
      }
    } else {
#pragma omp for schedule(static)
      for (Index j = 0; j < len; ++j) {
        const StrandT hs = h[hi + j];
        const StrandT vs = v[vi + j];
        if (a_rev[hi + j] == b[vi + j] || hs > vs) {
          h[hi + j] = vs;
          v[vi + j] = hs;
        }
      }
    }
  }
}

// Full three-phase anti-diagonal sweep on the calling thread (requires
// 1 <= m <= n).
template <typename StrandT, CombMode Mode>
void comb_diagonals(CombCellsFn<StrandT> fn, const CombSymbol<StrandT>* a_rev,
                    const CombSymbol<StrandT>* b, StrandT* h, StrandT* v, Index m,
                    Index n) {
  assert(m >= 1 && m <= n);
  const Index full = n - m + 1;
  for (Index d = 0; d < m - 1; ++d) {
    comb_cells<StrandT, Mode>(fn, a_rev, b, h, v, d + 1, m - 1 - d, 0);
  }
  for (Index k = 0; k < full; ++k) {
    comb_cells<StrandT, Mode>(fn, a_rev, b, h, v, m, 0, k);
  }
  Index vi = full;
  for (Index len = m - 1; len >= 1; --len) {
    comb_cells<StrandT, Mode>(fn, a_rev, b, h, v, len, 0, vi);
    ++vi;
  }
}

// Serial sweep in bands of `band_rows` grid rows, top band first, each band
// combed in anti-diagonal order with the v strands carried down to the next.
// Every cell still runs after its upper and left neighbours, so the braid is
// the one the unbanded sweep produces; only the order of independent cells
// changes. Band b covers rows [r0, r0 + rows), i.e. h slots and a_rev
// entries [m - r0 - rows, m - r0).
template <typename StrandT, CombMode Mode>
void comb_bands(CombCellsFn<StrandT> fn, const CombSymbol<StrandT>* a_rev,
                const CombSymbol<StrandT>* b, StrandT* h, StrandT* v, Index m, Index n,
                Index band_rows) {
  for (Index r0 = 0; r0 < m; r0 += band_rows) {
    const Index rows = std::min(band_rows, m - r0);
    const Index off = m - r0 - rows;
    comb_diagonals<StrandT, Mode>(fn, a_rev + off, b, h + off, v, rows, n);
  }
}

// One thread team over the whole grid (requires 1 <= m <= n), a barrier per
// anti-diagonal (Listing 4).
template <typename StrandT, CombMode Mode>
void comb_team(CombCellsFn<StrandT> fn, const CombSymbol<StrandT>* a_rev,
               const CombSymbol<StrandT>* b, StrandT* h, StrandT* v, Index m, Index n) {
  assert(m >= 1 && m <= n);
  const Index full = n - m + 1;
#pragma omp parallel
  {
    for (Index d = 0; d < m - 1; ++d) {
      comb_cells_par<StrandT, Mode, false>(fn, a_rev, b, h, v, d + 1, m - 1 - d, 0);
    }
    for (Index k = 0; k < full; ++k) {
      comb_cells_par<StrandT, Mode, false>(fn, a_rev, b, h, v, m, 0, k);
    }
    Index vi = full;
    for (Index len = m - 1; len >= 1; --len) {
      comb_cells_par<StrandT, Mode, false>(fn, a_rev, b, h, v, len, 0, vi);
      ++vi;
    }
  }
}

// The symbols the StrandT kernels read, leased from `ws`: 16-bit codes for
// 16-bit strands, the raw Symbols (a reversed) for 32-bit strands.
template <typename StrandT>
std::pair<const CombSymbol<StrandT>*, const CombSymbol<StrandT>*> comb_symbols(
    Workspace& ws, SequenceView a, SequenceView b) {
  if constexpr (sizeof(StrandT) == 2) {
    const Workspace::SymbolCodes codes = ws.codes(a, b);
    return {codes.a_rev.data(), codes.b.data()};
  } else {
    return {ws.reversed(a).data(), b.data()};
  }
}

// Strand arrays leased from a workspace.
template <typename StrandT>
struct StrandSpans {
  std::span<StrandT> h;
  std::span<StrandT> v;

  // Natural initialization: ids == slot numbers (the initial boundary order).
  StrandSpans(Workspace& ws, Index m, Index n)
      : h(ws.strands<StrandT>(static_cast<std::size_t>(m))),
        v(ws.strands<StrandT>(static_cast<std::size_t>(n))) {
    for (Index i = 0; i < m; ++i) h[static_cast<std::size_t>(i)] = static_cast<StrandT>(i);
    for (Index j = 0; j < n; ++j) v[static_cast<std::size_t>(j)] = static_cast<StrandT>(m + j);
  }

  // Phase initialization: ids == positions of the slots on the phase's
  // entry front, keeping the crossed-before comparison valid mid-grid.
  StrandSpans(Workspace& ws, Index m, Index n, const std::vector<Index>& pos_of_slot)
      : h(ws.strands<StrandT>(static_cast<std::size_t>(m))),
        v(ws.strands<StrandT>(static_cast<std::size_t>(n))) {
    for (Index i = 0; i < m; ++i) {
      h[static_cast<std::size_t>(i)] = static_cast<StrandT>(pos_of_slot[static_cast<std::size_t>(i)]);
    }
    for (Index j = 0; j < n; ++j) {
      v[static_cast<std::size_t>(j)] = static_cast<StrandT>(pos_of_slot[static_cast<std::size_t>(m + j)]);
    }
  }
};

// band_rows > 0: comb_bands on the calling thread; 0: comb_team.
template <typename StrandT>
SemiLocalKernel antidiag_typed(SequenceView a, SequenceView b, const CombOptions& o,
                               Index band_rows, Workspace& ws) {
  const Index m = static_cast<Index>(a.size());
  const Index n = static_cast<Index>(b.size());
  ws.reset();
  const auto symbols = comb_symbols<StrandT>(ws, a, b);
  const CombSymbol<StrandT>* ra = symbols.first;
  const CombSymbol<StrandT>* rb = symbols.second;
  StrandSpans<StrandT> s(ws, m, n);
  const CombCellsFn<StrandT> fn = resolve_kernels(o.isa).template get<StrandT>();
  const auto sweep = [&]<CombMode Mode>() {
    if (band_rows > 0) {
      comb_bands<StrandT, Mode>(fn, ra, rb, s.h.data(), s.v.data(), m, n, band_rows);
    } else {
      comb_team<StrandT, Mode>(fn, ra, rb, s.h.data(), s.v.data(), m, n);
    }
  };
  if (!o.branchless) {
    sweep.template operator()<CombMode::kBranching>();
  } else if (o.minmax) {
    sweep.template operator()<CombMode::kMinMax>();
  } else {
    sweep.template operator()<CombMode::kKernel>();
  }
  return SemiLocalKernel(build_kernel(s.h.data(), s.v.data(), m, n), m, n);
}

bool fits_16bit(Index m, Index n) { return m + n < (Index{1} << 16); }

// Trivial kernels for empty inputs: no crossings, identity braid.
SemiLocalKernel empty_kernel(Index m, Index n) {
  return SemiLocalKernel(Permutation::identity(m + n), m, n);
}

template <typename StrandT>
SemiLocalKernel load_balanced_typed(SequenceView a, SequenceView b,
                                    const CombOptions& o, const SteadyAntOptions& ant,
                                    Workspace& ws) {
  const Index m = static_cast<Index>(a.size());
  const Index n = static_cast<Index>(b.size());
  const Index full = n - m + 1;
  ws.reset();
  const auto symbols = comb_symbols<StrandT>(ws, a, b);
  const CombSymbol<StrandT>* ra = symbols.first;
  const CombSymbol<StrandT>* pb = symbols.second;
  const CombCellsFn<StrandT> fn = resolve_kernels(o.isa).template get<StrandT>();
  // Phase boundaries: the fronts after anti-diagonal m-2 (start of the
  // constant band) and after anti-diagonal n-1 (end of the band). Phases 2
  // and 3 comb with entry-front position ids.
  const auto pos1 = positions_of_slots(m, n, m - 1);
  const auto pos2 = positions_of_slots(m, n, n);
  StrandSpans<StrandT> s1(ws, m, n), s2(ws, m, n, pos1), s3(ws, m, n, pos2);

  // Phases 1 and 3 as independent sub-braids: paired iteration t combs
  // phase-1 diagonal t (length t+1) and phase-3 diagonal t (length m-1-t),
  // exactly m cells per iteration with a single barrier (Figure 2).
  const bool fork = m * n >= kLoadBalancedGrainCells;
  if (o.parallel) {
#pragma omp parallel if (fork)
    for (Index t = 0; t < m - 1; ++t) {
      comb_cells_par<StrandT, CombMode::kKernel, true>(fn, ra, pb, s1.h.data(), s1.v.data(),
                                                       t + 1, m - 1 - t, 0);
      comb_cells_par<StrandT, CombMode::kKernel, false>(fn, ra, pb, s3.h.data(), s3.v.data(),
                                                        m - 1 - t, 0, full + t);
    }
  } else {
    for (Index t = 0; t < m - 1; ++t) {
      comb_cells<StrandT, CombMode::kKernel>(fn, ra, pb, s1.h.data(), s1.v.data(), t + 1, m - 1 - t, 0);
      comb_cells<StrandT, CombMode::kKernel>(fn, ra, pb, s3.h.data(), s3.v.data(), m - 1 - t, 0, full + t);
    }
  }
  // Phase 2: the constant-length band.
  if (o.parallel) {
#pragma omp parallel if (fork)
    for (Index k = 0; k < full; ++k) {
      comb_cells_par<StrandT, CombMode::kKernel, false>(fn, ra, pb, s2.h.data(), s2.v.data(), m, 0, k);
    }
  } else {
    for (Index k = 0; k < full; ++k) {
      comb_cells<StrandT, CombMode::kKernel>(fn, ra, pb, s2.h.data(), s2.v.data(), m, 0, k);
    }
  }

  const Permutation b1 = build_subbraid(s1.h.data(), s1.v.data(), m, n, &pos1);
  const Permutation b2 = build_subbraid(s2.h.data(), s2.v.data(), m, n, &pos2);
  const Permutation b3 = build_subbraid(s3.h.data(), s3.v.data(), m, n, nullptr);
  const Permutation stitched =
      multiply(multiply(b1, b2, ant, &ws.ant()), b3, ant, &ws.ant());
  return SemiLocalKernel(stitched, m, n);
}

}  // namespace

SemiLocalKernel comb_rowmajor(SequenceView a, SequenceView b) {
  const Index m = static_cast<Index>(a.size());
  const Index n = static_cast<Index>(b.size());
  if (m == 0 || n == 0) return empty_kernel(m, n);
  std::vector<std::int32_t> h(static_cast<std::size_t>(m));
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  for (Index i = 0; i < m; ++i) h[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i);
  for (Index j = 0; j < n; ++j) v[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(m + j);
  for (Index i = 0; i < m; ++i) {
    const Index hi = m - 1 - i;
    const Symbol x = a[static_cast<std::size_t>(i)];
    for (Index j = 0; j < n; ++j) {
      const std::int32_t hs = h[static_cast<std::size_t>(hi)];
      const std::int32_t vs = v[static_cast<std::size_t>(j)];
      if (x == b[static_cast<std::size_t>(j)] || hs > vs) {
        // No crossing in this cell: the strands exchange tracks.
        h[static_cast<std::size_t>(hi)] = vs;
        v[static_cast<std::size_t>(j)] = hs;
      }
    }
  }
  return SemiLocalKernel(build_kernel(h.data(), v.data(), m, n), m, n);
}

SemiLocalKernel comb_antidiag(SequenceView a, SequenceView b, const CombOptions& opts,
                              Workspace* ws) {
  const Index cells = static_cast<Index>(a.size()) * static_cast<Index>(b.size());
  const Index band_rows = opts.parallel && cells >= kCombGrainCells ? 0 : kCombBandRows;
  return detail::comb_antidiag_banded(a, b, opts, band_rows, ws);
}

namespace detail {

SemiLocalKernel comb_antidiag_banded(SequenceView a, SequenceView b,
                                     const CombOptions& opts, Index band_rows,
                                     Workspace* ws) {
  const Index m = static_cast<Index>(a.size());
  const Index n = static_cast<Index>(b.size());
  if (m == 0 || n == 0) return empty_kernel(m, n);
  if (m > n) return comb_antidiag_banded(b, a, opts, band_rows, ws).flipped();
  Workspace& w = ws ? *ws : tls_workspace();
  if (opts.allow_16bit && fits_16bit(m, n)) {
    return antidiag_typed<std::uint16_t>(a, b, opts, band_rows, w);
  }
  return antidiag_typed<std::uint32_t>(a, b, opts, band_rows, w);
}

}  // namespace detail

SemiLocalKernel comb_load_balanced(SequenceView a, SequenceView b,
                                   const CombOptions& opts, const SteadyAntOptions& ant,
                                   Workspace* ws) {
  const Index m = static_cast<Index>(a.size());
  const Index n = static_cast<Index>(b.size());
  if (m == 0 || n == 0) return empty_kernel(m, n);
  if (m > n) return comb_load_balanced(b, a, opts, ant, ws).flipped();
  Workspace& w = ws ? *ws : tls_workspace();
  if (opts.allow_16bit && fits_16bit(m, n)) {
    return load_balanced_typed<std::uint16_t>(a, b, opts, ant, w);
  }
  return load_balanced_typed<std::uint32_t>(a, b, opts, ant, w);
}

}  // namespace semilocal
