// Top-level public API: one entry point over every semi-local LCS algorithm
// in the library, keyed by strategy. This is what examples and downstream
// users call; the per-algorithm headers remain available for fine control.
#pragma once

#include <string_view>
#include <vector>

#include "core/hybrid.hpp"
#include "core/iterative_combing.hpp"
#include "core/kernel.hpp"
#include "core/recursive_combing.hpp"
#include "util/types.hpp"

namespace semilocal {

class Workspace;

/// Algorithm selector; names follow the paper's evaluation legend.
enum class Strategy {
  kRowMajor,        ///< semi_rowmajor (Listing 1)
  kAntidiag,        ///< semi_antidiag (Listing 4, branching)
  kAntidiagSimd,    ///< semi_antidiag_SIMD (branchless)
  kLoadBalanced,    ///< semi_load_balanced (three phases + braid mult)
  kRecursive,       ///< recursive combing (Listing 3)
  kHybrid,          ///< semi_hybrid (Listing 6)
  kHybridTiled,     ///< semi_hybrid_iterative (Listing 7)
};

/// Human-readable strategy name (the paper's legend string).
std::string_view strategy_name(Strategy s);

/// Unified options. Defaults give the strongest sequential configuration.
struct SemiLocalOptions {
  Strategy strategy = Strategy::kAntidiagSimd;
  /// Enable OpenMP parallelism (threads/tasks as appropriate per strategy).
  bool parallel = false;
  /// Recursion/tile depth for the recursive and hybrid strategies.
  int depth = 2;
  /// Allow 16-bit strand indices when m + n < 2^16.
  bool allow_16bit = true;
  /// Steady-ant configuration used by composing strategies.
  SteadyAntOptions ant = {.precalc = true, .preallocate = true};
};

/// Computes the semi-local LCS kernel of (a, b) with the chosen strategy.
SemiLocalKernel semi_local_kernel(SequenceView a, SequenceView b,
                                  const SemiLocalOptions& opts = {});

/// Same, drawing all scratch from `ws` (see core/workspace.hpp). With a
/// reused workspace, repeated calls allocate only for the returned kernel.
/// nullptr uses the calling thread's persistent tls_workspace().
SemiLocalKernel semi_local_kernel(SequenceView a, SequenceView b,
                                  const SemiLocalOptions& opts, Workspace* ws);

/// Global LCS score via the semi-local kernel.
Index lcs_semilocal(SequenceView a, SequenceView b, const SemiLocalOptions& opts = {});

}  // namespace semilocal
