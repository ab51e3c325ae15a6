// Multi-pattern approximate search over one text.
//
// Builds one semi-local kernel and one QueryIndex per pattern (embarrassingly
// parallel across patterns -- a coarse-grained layer on top of whatever
// per-kernel strategy is configured) and answers window queries for all of
// them in O(log n) each: the dictionary counterpart of
// examples/approximate_match.
#pragma once

#include <vector>

#include "core/api.hpp"
#include "core/query_index.hpp"
#include "util/types.hpp"

namespace semilocal {

/// One located approximate occurrence.
struct PatternMatch {
  Index pattern_id = 0;
  Index start = 0;   ///< window [start, end) in the text
  Index end = 0;
  Index score = 0;   ///< LCS(pattern, window)
  double identity = 0.0;  ///< score / |pattern|
};

/// Kernels for a pattern dictionary against a fixed text.
class MultiPatternIndex {
 public:
  /// Builds all kernels and their indexes. `opts` selects the per-kernel algorithm; pattern-
  /// level OpenMP parallelism is used when `parallel_build`.
  MultiPatternIndex(std::vector<Sequence> patterns, SequenceView text,
                    const SemiLocalOptions& opts = {}, bool parallel_build = true);

  [[nodiscard]] Index pattern_count() const { return static_cast<Index>(patterns_.size()); }
  [[nodiscard]] Index text_length() const { return static_cast<Index>(text_.size()); }
  [[nodiscard]] const Sequence& pattern(Index id) const {
    return patterns_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const SemiLocalKernel& kernel(Index id) const {
    return kernels_[static_cast<std::size_t>(id)];
  }

  /// Best window of width |pattern| * (100 + width_slack_pct) / 100 for each
  /// pattern.
  [[nodiscard]] std::vector<PatternMatch> best_matches(Index width_slack_pct = 20) const;

  /// All non-overlapping windows (per pattern) with identity >= threshold,
  /// scanning starts with `stride`. Sorted by text position.
  [[nodiscard]] std::vector<PatternMatch> find_all(double min_identity,
                                                   Index stride = 1,
                                                   Index width_slack_pct = 20) const;

 private:
  std::vector<Sequence> patterns_;
  Sequence text_;
  std::vector<SemiLocalKernel> kernels_;
  std::vector<QueryIndex> indexes_;  ///< one per kernel, same order
};

}  // namespace semilocal
