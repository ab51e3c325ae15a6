// Iterative combing: direct computation of the semi-local kernel by one
// sweep over the LCS grid (paper Listings 1 and 4).
//
// Variants match the paper's evaluation legend:
//   semi_rowmajor       - comb_rowmajor: Listing 1, row-major cell order
//   semi_antidiag       - comb_antidiag(branchless=false): anti-diagonal
//                         order, branching inner loop
//   semi_antidiag_SIMD  - comb_antidiag(branchless=true): the conditional
//                         swap becomes the branchless update of Section 4.1,
//                         executed by the runtime-dispatched SIMD kernel
//                         layer (core/comb_kernels.hpp): hand-written
//                         AVX-512 masked min-max where the CPU supports it,
//                         the autovectorized bitwise-select loop otherwise
//   semi_load_balanced  - comb_load_balanced: the first and third phase are
//                         combed together as two independent sub-braids of
//                         constant combined diagonal length m, then stitched
//                         with braid multiplication (Figure 2)
//
// When m + n < 2^16 and options allow, strand indices are stored in 16-bit
// words, doubling the SIMD lane count (Section 4.1, last paragraph), and the
// pair's symbols are read as 16-bit codes (Workspace::codes) in every mode.
//
// Below the OpenMP grain (util/parallel.hpp) the anti-diagonal sweep runs on
// the calling thread in bands of rows, one band's diagonals at a time, so
// the diagonal in flight stays cache-resident. Combing is a transposition
// network: any order that respects cell dependencies yields the same braid.
//
// All entry points accept an optional Workspace; with one, repeated calls
// reuse the symbol buffers (codes or reversed `a`), strand arrays and
// steady-ant scratch and do zero steady-state scratch allocation. Without
// one, the calling thread's persistent tls_workspace() is used, which gives
// the same steady-state behaviour automatically.
#pragma once

#include "braid/steady_ant.hpp"
#include "core/comb_kernels.hpp"
#include "core/kernel.hpp"
#include "util/types.hpp"

namespace semilocal {

class Workspace;

/// Knobs for the anti-diagonal combing family.
struct CombOptions {
  /// Replace the conditional swap by the branchless update (the SIMD
  /// variant, served by the dispatched kernel layer).
  bool branchless = true;
  /// Process each anti-diagonal with an OpenMP worksharing loop (grids of at
  /// least kCombGrainCells cells; smaller ones use the serial sweep).
  bool parallel = false;
  /// Use 16-bit strand indices when m + n fits (ignored otherwise).
  bool allow_16bit = true;
  /// Use the autovectorized min/max formulation of the branchless inner loop
  /// instead of the dispatched kernels: h' = match ? v : min(h,v),
  /// v' = match ? h : max(h,v). Kept as the ablation (A6) of the formulation
  /// itself; the explicit AVX-512 kernels use the same formulation with
  /// hand-placed masks.
  bool minmax = false;
  /// Kernel tier for the branchless inner loop. kAuto resolves once per
  /// process: SEMILOCAL_KERNEL=scalar|avx512 override, else the widest
  /// ISA the CPU supports. Ignored when minmax or !branchless.
  KernelIsa isa = KernelIsa::kAuto;
};

/// Listing 1: row-major sequential combing.
SemiLocalKernel comb_rowmajor(SequenceView a, SequenceView b);

/// Listing 4: anti-diagonal combing in three phases.
SemiLocalKernel comb_antidiag(SequenceView a, SequenceView b,
                              const CombOptions& opts = {},
                              Workspace* ws = nullptr);

/// Load-balanced variant: phases 1 and 3 are combed simultaneously as
/// independent braids (m cells per iteration, half the synchronisations) and
/// the three sub-braids are composed by steady-ant multiplication.
SemiLocalKernel comb_load_balanced(SequenceView a, SequenceView b,
                                   const CombOptions& opts = {},
                                   const SteadyAntOptions& ant = {.precalc = true,
                                                                  .preallocate = true},
                                   Workspace* ws = nullptr);

namespace detail {

/// comb_antidiag with its schedule pinned, for tests and bench_micro's band
/// rows: `band_rows` > 0 sweeps on the calling thread in bands of that many
/// rows (at least the shorter side: one unbanded sweep); 0 runs the one-team
/// parallel sweep whatever the grid size. `opts.parallel` is ignored.
/// comb_antidiag passes kCombBandRows, or 0 when opts.parallel and the grid
/// has at least kCombGrainCells cells.
SemiLocalKernel comb_antidiag_banded(SequenceView a, SequenceView b,
                                     const CombOptions& opts, Index band_rows,
                                     Workspace* ws = nullptr);

}  // namespace detail

}  // namespace semilocal
