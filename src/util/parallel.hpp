// Thin OpenMP helpers: scoped thread-count control and capability queries.
//
// The library's parallel algorithms use OpenMP directly (parallel for over
// anti-diagonals, task recursion for the steady ant); this header centralizes
// the few runtime knobs the benchmark harness needs, and the grain cut-offs
// every OpenMP region checks before it forks a team.
#pragma once

#include "util/types.hpp"

namespace semilocal {

// Grain cut-offs: a region with less work than its grain runs on the calling
// thread (`#pragma omp parallel if (...)`), the way Listing 5 cuts the steady
// ant's recursion off at a sequential depth. Below these sizes forking a team
// and synchronising it costs more than the cells themselves -- and under
// oversubscription (several processes each spinning a team) far more. Read
// off the BM_Grain* rows of bench_micro on a 4 vCPU x86-64 VM (g++ 12,
// -O3 -march=native, AVX-512 comb tier, default OMP_WAIT_POLICY). They are
// constants, not options.

/// Whole-grid anti-diagonal combing sweeps (core/iterative_combing): one team
/// per sweep and a barrier per anti-diagonal, against the serial banded sweep
/// at ~0.08 ns/cell (16-bit strands) / ~0.18 ns/cell (32-bit). Measured
/// crossover between 24576^2 (parallel 1.27x slower) and 32768^2 (1.36x
/// faster); every grid with 16-bit strands (m + n < 2^16) stays serial.
inline constexpr Index kCombGrainCells = Index{1} << 30;

/// The load-balanced variant's phase sweeps (core/iterative_combing), which
/// stay unbanded. Measured parity at 8192^2, parallel 1.13x faster at
/// 16384^2.
inline constexpr Index kLoadBalancedGrainCells = Index{1} << 27;

/// Whole-grid bit-parallel sweeps (bitlcs), in symbol cells m * n. Measured
/// crossover between 512^2 (parallel 1.35x slower) and 1024^2 (1.1x faster).
inline constexpr Index kBitCombGrainCells = Index{1} << 20;

/// Regions forked once per row or anti-diagonal (lcs/prefix, lcs/aluru), in
/// cells of that row. Measured on the prefix anti-diagonal DP: parity at
/// 8192^2 (longest diagonal 8192), parallel 1.4x faster at 16384^2.
inline constexpr Index kRowGrainCells = Index{1} << 13;

/// Number of threads OpenMP will use for the next parallel region.
int max_threads();

/// Number of hardware threads visible to the process.
int hardware_threads();

/// Sets the global OpenMP thread count (like omp_set_num_threads).
void set_threads(int n);

/// RAII guard: sets the OpenMP thread count for a scope, restores on exit.
/// Used by the thread-sweep benchmarks (Figures 7-9).
class ThreadScope {
 public:
  explicit ThreadScope(int n);
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int saved_;
};

}  // namespace semilocal
