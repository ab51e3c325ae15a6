#include "lcs/aluru.hpp"

#include <algorithm>
#include <vector>

#include "util/parallel.hpp"

namespace semilocal {

Index lcs_prefix_scan(SequenceView a, SequenceView b, bool parallel) {
  const Index m = static_cast<Index>(a.size());
  const Index n = static_cast<Index>(b.size());
  if (m == 0 || n == 0) return 0;
  std::vector<std::int64_t> prev(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::int64_t> x(static_cast<std::size_t>(n) + 1, 0);
  const std::int64_t* __restrict prev_p = prev.data();
  std::int64_t* __restrict x_p = x.data();
  const Symbol* __restrict pb = b.data();
  for (Index i = 0; i < m; ++i) {
    const Symbol ai = a[static_cast<std::size_t>(i)];
    if (parallel && n >= kRowGrainCells) {
#pragma omp parallel for simd schedule(static)
      for (Index j = 1; j <= n; ++j) {
        const std::int64_t match = (ai == pb[j - 1]) ? 1 : 0;
        x_p[j] = std::max(prev_p[j], prev_p[j - 1] + match);
      }
      std::int64_t running = 0;
#pragma omp parallel for reduction(inscan, max : running)
      for (Index j = 1; j <= n; ++j) {
        running = std::max(running, x_p[j]);
#pragma omp scan inclusive(running)
        x_p[j] = running;
      }
    } else {
#pragma omp simd
      for (Index j = 1; j <= n; ++j) {
        const std::int64_t match = (ai == pb[j - 1]) ? 1 : 0;
        x_p[j] = std::max(prev_p[j], prev_p[j - 1] + match);
      }
      std::int64_t running = 0;
      for (Index j = 1; j <= n; ++j) {
        running = std::max(running, x_p[j]);
        x_p[j] = running;
      }
    }
    std::swap(prev, x);
    prev_p = prev.data();
    x_p = x.data();
  }
  return prev[static_cast<std::size_t>(n)];
}

}  // namespace semilocal
