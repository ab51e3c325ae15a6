// Distance views of (semi-local) LCS.
//
// The LCS score L and the indel edit distance (a.k.a. LCS distance --
// insertions and deletions only, or equivalently unit indels with
// substitution cost 2) are two sides of one coin:
//
//   d_indel(a, b) = |a| + |b| - 2 * LCS(a, b).
//
// Through a semi-local kernel this turns the string-substring quadrant into
// *window distances*: d_indel(a, b[j0, j1)) for every window, with no
// per-window DP. The Levenshtein distance (unit substitutions) is provided
// as a classical baseline; the two are related by
//
//   d_lev <= d_indel <= 2 * d_lev      and      d_lev >= ||a| - |b||.
#pragma once

#include "core/kernel.hpp"
#include "core/query_index.hpp"
#include "util/types.hpp"

namespace semilocal {

/// Classical Levenshtein distance (unit insert/delete/substitute), rolling
/// rows, O(min(m,n)) memory.
Index levenshtein(SequenceView a, SequenceView b);

/// Indel edit distance via dynamic programming: |a| + |b| - 2 LCS(a, b).
Index indel_distance(SequenceView a, SequenceView b);

/// Window-distance queries over a fixed kernel, each O(log n) through one
/// QueryIndex.
class WindowDistances {
 public:
  /// Builds the QueryIndex of a kernel of (pattern a, text b); the kernel
  /// itself is not retained.
  explicit WindowDistances(const SemiLocalKernel& kernel) : index_(kernel) {}

  /// d_indel(a, b[j0, j1)).
  [[nodiscard]] Index window(Index j0, Index j1) const;

  /// d_indel(a[0,k), b[l, n)) -- prefix-suffix distance.
  [[nodiscard]] Index prefix_suffix(Index k, Index l) const;

  /// Best window of width `width` (smallest distance); scans all start
  /// positions with stride `stride`. Returns {start, distance}.
  [[nodiscard]] std::pair<Index, Index> best_window(Index width, Index stride = 1) const;

  /// Best window of ANY width ending at each possible end -- the classic
  /// approximate-matching profile: for each end position j1, the minimum
  /// over j0 of d_indel(a, b[j0, j1)). O(n) queries per end position would
  /// be too slow; this uses the fact that for fixed j1 the distance is
  /// minimized over j0 by scanning a monotone range, and simply evaluates a
  /// capped candidate set around |a|.
  [[nodiscard]] std::vector<Index> end_position_profile(Index slack) const;

 private:
  QueryIndex index_;
};

}  // namespace semilocal
