// Similarity dotplots from semi-local kernels.
//
// Partitions string a into `rows` chunks; for each chunk one kernel of
// (chunk, b), queried through one QueryIndex, yields the LCS identity of the
// chunk against EVERY column window of b -- so an R x C dotplot costs R
// kernels instead of R*C alignments. Used by the CLI's `dotplot` subcommand and handy for spotting
// rearrangements (inversions, translocations) between related sequences.
#pragma once

#include <string>
#include <vector>

#include "core/api.hpp"
#include "util/types.hpp"

namespace semilocal {

/// Dense matrix of window identities in [0, 1].
struct Dotplot {
  Index rows = 0;
  Index cols = 0;
  std::vector<double> identity;  // row-major

  [[nodiscard]] double at(Index r, Index c) const {
    return identity[static_cast<std::size_t>(r * cols + c)];
  }
};

/// Computes the rows x cols dotplot of a against b. Each cell (r, c) is
/// LCS(a_chunk_r, b_window_c) / |a_chunk_r|. `opts` selects the per-kernel
/// algorithm; rows are processed in parallel when `parallel`.
Dotplot compute_dotplot(SequenceView a, SequenceView b, Index rows, Index cols,
                        const SemiLocalOptions& opts = {}, bool parallel = true);

/// ASCII rendering with a density ramp " .:-=+*#%@" (low to high identity).
std::string render_dotplot(const Dotplot& plot);

}  // namespace semilocal
