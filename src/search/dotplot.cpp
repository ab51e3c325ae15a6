#include "search/dotplot.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/query_index.hpp"

namespace semilocal {

Dotplot compute_dotplot(SequenceView a, SequenceView b, Index rows, Index cols,
                        const SemiLocalOptions& opts, bool parallel) {
  if (rows <= 0 || cols <= 0) throw std::invalid_argument("compute_dotplot: grid must be positive");
  if (a.empty() || b.empty()) throw std::invalid_argument("compute_dotplot: empty input");
  rows = std::min<Index>(rows, static_cast<Index>(a.size()));
  cols = std::min<Index>(cols, static_cast<Index>(b.size()));
  Dotplot plot;
  plot.rows = rows;
  plot.cols = cols;
  plot.identity.assign(static_cast<std::size_t>(rows * cols), 0.0);
  const Index m = static_cast<Index>(a.size());
  const Index n = static_cast<Index>(b.size());
#pragma omp parallel for schedule(dynamic) if (parallel)
  for (Index r = 0; r < rows; ++r) {
    const Index a0 = m * r / rows;
    const Index a1 = m * (r + 1) / rows;
    const auto chunk = a.subspan(static_cast<std::size_t>(a0), static_cast<std::size_t>(a1 - a0));
    SemiLocalOptions inner = opts;
    inner.parallel = false;
    const QueryIndex index(semi_local_kernel(chunk, b, inner));
    for (Index c = 0; c < cols; ++c) {
      const Index b0 = n * c / cols;
      const Index b1 = n * (c + 1) / cols;
      const Index score = index.string_substring(b0, b1);
      plot.identity[static_cast<std::size_t>(r * cols + c)] =
          static_cast<double>(score) / static_cast<double>(std::max<Index>(1, a1 - a0));
    }
  }
  return plot;
}

std::string render_dotplot(const Dotplot& plot) {
  static constexpr char kRamp[] = " .:-=+*#%@";
  constexpr int kLevels = static_cast<int>(sizeof(kRamp)) - 2;  // last index
  // Normalize against the observed range so structure stands out even when
  // background similarity is high (small alphabets).
  double lo = 1.0;
  double hi = 0.0;
  for (const double v : plot.identity) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = std::max(1e-9, hi - lo);
  std::ostringstream out;
  out << "+" << std::string(static_cast<std::size_t>(plot.cols), '-') << "+  identity "
      << lo << ".." << hi << '\n';
  for (Index r = 0; r < plot.rows; ++r) {
    out << '|';
    for (Index c = 0; c < plot.cols; ++c) {
      const double v = (plot.at(r, c) - lo) / span;
      const int level = std::clamp(static_cast<int>(std::lround(v * kLevels)), 0, kLevels);
      out << kRamp[level];
    }
    out << "|\n";
  }
  out << "+" << std::string(static_cast<std::size_t>(plot.cols), '-') << "+\n";
  return out.str();
}

}  // namespace semilocal
