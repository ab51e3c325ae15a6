// Semi-local EDIT DISTANCE via the blow-up reduction to LCS.
//
// Interleave each string with a shared separator symbol:
//   blow(x_1 x_2 ... x_k) = x_1 $ x_2 $ ... x_k $.
// Then the unit-cost Levenshtein distance (insert / delete / substitute,
// all cost 1) satisfies
//   ED(a, b) = |a| + |b| - LCS(blow(a), blow(b)).
// Intuition: an LCS symbol pair (x, x) realizes a kept character, while a
// matched separator pair realizes one substitution or gap alignment; the
// blow-up lets the LCS machinery "pay" 1 instead of 2 for substitutions.
//
// Because blow(b)'s windows at even offsets are exactly blow(b[j0, j1)),
// ONE semi-local kernel over the blown strings answers the Levenshtein
// distance of a against every substring of b -- semi-local edit distance,
// the query family behind approximate matching by edit distance (Sellers,
// Landau-Vishkin; see the paper's related-work discussion). The index keeps
// one QueryIndex over that kernel, so every window costs O(log n).
#pragma once

#include "core/api.hpp"
#include "core/query_index.hpp"
#include "util/types.hpp"

namespace semilocal {

/// Separator injected by the blow-up; reserved (inputs must not use it).
inline constexpr Symbol kBlowupSeparator = -2'000'000;

/// blow(s): s interleaved with the separator (length doubles).
Sequence blow_up(SequenceView s);

/// One-shot Levenshtein distance through the reduction (sanity/reference
/// path; levenshtein() in distance.hpp is the direct DP).
Index levenshtein_via_lcs(SequenceView a, SequenceView b,
                          const SemiLocalOptions& opts = {});

/// Window edit-distance queries: ED(a, b[j0, j1)) for all windows, from one
/// kernel over the blown strings, kept as its QueryIndex.
class EditDistanceIndex {
 public:
  /// Builds the kernel of (blow(a), blow(b)) and indexes it. Throws if
  /// either input uses the reserved separator symbol.
  EditDistanceIndex(SequenceView a, SequenceView b, const SemiLocalOptions& opts = {});

  [[nodiscard]] Index m() const { return m_; }
  [[nodiscard]] Index n() const { return n_; }

  /// Levenshtein distance of the whole pair.
  [[nodiscard]] Index distance() const { return window(0, n_); }

  /// ED(a, b[j0, j1)).
  [[nodiscard]] Index window(Index j0, Index j1) const;

  /// ED(a[i0, i1), b).
  [[nodiscard]] Index a_window(Index i0, Index i1) const;

  /// ED(a[0,k), b[l,n)).
  [[nodiscard]] Index prefix_suffix(Index k, Index l) const;

  /// Window of width `width` minimizing ED(a, window); {start, distance}.
  [[nodiscard]] std::pair<Index, Index> best_window(Index width, Index stride = 1) const;

 private:
  Index m_ = 0;
  Index n_ = 0;
  QueryIndex index_;
};

}  // namespace semilocal
