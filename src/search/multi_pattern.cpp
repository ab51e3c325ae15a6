#include "search/multi_pattern.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace semilocal {

MultiPatternIndex::MultiPatternIndex(std::vector<Sequence> patterns, SequenceView text,
                                     const SemiLocalOptions& opts, bool parallel_build)
    : patterns_(std::move(patterns)), text_(text.begin(), text.end()) {
  kernels_.resize(patterns_.size());
  const Index k = static_cast<Index>(patterns_.size());
#pragma omp parallel for schedule(dynamic) if (parallel_build)
  for (Index p = 0; p < k; ++p) {
    // Pattern-level parallelism is the outer layer; keep kernels sequential.
    SemiLocalOptions inner = opts;
    inner.parallel = false;
    kernels_[static_cast<std::size_t>(p)] =
        semi_local_kernel(patterns_[static_cast<std::size_t>(p)], text_, inner);
  }
  indexes_.reserve(kernels_.size());
  for (const SemiLocalKernel& kernel : kernels_) indexes_.emplace_back(kernel);
}

std::vector<PatternMatch> MultiPatternIndex::best_matches(Index width_slack_pct) const {
  std::vector<PatternMatch> out;
  out.reserve(patterns_.size());
  for (Index p = 0; p < pattern_count(); ++p) {
    const QueryIndex& index = indexes_[static_cast<std::size_t>(p)];
    const Index plen = static_cast<Index>(patterns_[static_cast<std::size_t>(p)].size());
    const Index width =
        std::min<Index>(index.n(), plen * (100 + width_slack_pct) / 100);
    PatternMatch best;
    best.pattern_id = p;
    best.end = width;
    best.score = -1;
    for (Index j0 = 0; j0 + width <= index.n(); ++j0) {
      const Index s = index.string_substring(j0, j0 + width);
      if (s > best.score) {
        best.score = s;
        best.start = j0;
        best.end = j0 + width;
      }
    }
    if (best.score < 0) best.score = index.string_substring(0, index.n());
    best.identity = plen > 0 ? static_cast<double>(best.score) / static_cast<double>(plen) : 0.0;
    out.push_back(best);
  }
  return out;
}

std::vector<PatternMatch> MultiPatternIndex::find_all(double min_identity, Index stride,
                                                      Index width_slack_pct) const {
  if (stride <= 0) throw std::invalid_argument("find_all: stride must be positive");
  if (min_identity < 0.0 || min_identity > 1.0) {
    throw std::invalid_argument("find_all: identity threshold must be in [0,1]");
  }
  std::vector<PatternMatch> out;
  for (Index p = 0; p < pattern_count(); ++p) {
    const QueryIndex& index = indexes_[static_cast<std::size_t>(p)];
    const Index plen = static_cast<Index>(patterns_[static_cast<std::size_t>(p)].size());
    if (plen == 0) continue;
    const Index width =
        std::min<Index>(index.n(), plen * (100 + width_slack_pct) / 100);
    // Collect candidate windows, then greedily keep non-overlapping peaks.
    std::vector<PatternMatch> candidates;
    for (Index j0 = 0; j0 + width <= index.n(); j0 += stride) {
      const Index s = index.string_substring(j0, j0 + width);
      const double identity = static_cast<double>(s) / static_cast<double>(plen);
      if (identity >= min_identity) {
        candidates.push_back({p, j0, j0 + width, s, identity});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const PatternMatch& x, const PatternMatch& y) { return x.score > y.score; });
    std::vector<PatternMatch> kept;
    for (const auto& c : candidates) {
      bool overlaps = false;
      for (const auto& k : kept) {
        if (c.start < k.end && k.start < c.end) overlaps = true;
      }
      if (!overlaps) kept.push_back(c);
    }
    out.insert(out.end(), kept.begin(), kept.end());
  }
  std::sort(out.begin(), out.end(), [](const PatternMatch& x, const PatternMatch& y) {
    return std::tie(x.start, x.pattern_id) < std::tie(y.start, y.pattern_id);
  });
  return out;
}

}  // namespace semilocal
