#include "lcs/prefix.hpp"

#include <algorithm>
#include <vector>

#include "util/parallel.hpp"

namespace semilocal {

Index lcs_prefix_rowmajor(SequenceView a, SequenceView b) {
  const Index m = static_cast<Index>(a.size());
  const Index n = static_cast<Index>(b.size());
  if (m == 0 || n == 0) return 0;
  std::vector<Index> prev(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Index> cur(static_cast<std::size_t>(n) + 1, 0);
  for (Index i = 1; i <= m; ++i) {
    const Symbol x = a[static_cast<std::size_t>(i - 1)];
    for (Index j = 1; j <= n; ++j) {
      // Branch-free: diag+1 dominates up/left exactly when the cell matches.
      const Index match = (x == b[static_cast<std::size_t>(j - 1)]) ? 1 : 0;
      cur[static_cast<std::size_t>(j)] =
          std::max({prev[static_cast<std::size_t>(j)],
                    cur[static_cast<std::size_t>(j - 1)],
                    prev[static_cast<std::size_t>(j - 1)] + match});
    }
    std::swap(prev, cur);
  }
  return prev[static_cast<std::size_t>(n)];
}

namespace {

// Core of the anti-diagonal order. Scores of three consecutive
// anti-diagonals are kept in rolling buffers indexed by row+1 (slot 0 is the
// permanent zero boundary). The standard LCS identity
//   L(i,j) = max(L(i-1,j), L(i,j-1), L(i-1,j-1) + [a_i == b_j])
// holds unconditionally, which keeps the inner loop branch-free.
template <bool Parallel>
Index antidiag_impl(SequenceView a, SequenceView b) {
  const Index m = static_cast<Index>(a.size());
  const Index n = static_cast<Index>(b.size());
  if (m == 0 || n == 0) return 0;
  std::vector<std::int64_t> buf0(static_cast<std::size_t>(m) + 1, 0);
  std::vector<std::int64_t> buf1(static_cast<std::size_t>(m) + 1, 0);
  std::vector<std::int64_t> buf2(static_cast<std::size_t>(m) + 1, 0);
  std::int64_t* prev2 = buf0.data();
  std::int64_t* prev = buf1.data();
  std::int64_t* cur = buf2.data();
  const Symbol* pa = a.data();
  const Symbol* pb = b.data();

  for (Index d = 0; d <= m + n - 2; ++d) {
    const Index lo = std::max<Index>(0, d - (n - 1));
    const Index hi = std::min<Index>(m - 1, d);
    // Slots beyond the previous diagonals' valid ranges correspond to j = -1
    // cells; pin them to the zero boundary.
    if (d + 1 <= m) prev[d + 1] = 0;
    if (d <= m && d >= 1) prev2[d] = 0;
    if constexpr (Parallel) {
#pragma omp parallel for simd schedule(static) if (hi - lo + 1 >= kRowGrainCells)
      for (Index i = lo; i <= hi; ++i) {
        const Index j = d - i;
        const std::int64_t match =
            (pa[static_cast<std::size_t>(i)] == pb[static_cast<std::size_t>(j)]) ? 1 : 0;
        cur[i + 1] = std::max({prev[i], prev[i + 1], prev2[i] + match});
      }
    } else {
#pragma omp simd
      for (Index i = lo; i <= hi; ++i) {
        const Index j = d - i;
        const std::int64_t match =
            (pa[static_cast<std::size_t>(i)] == pb[static_cast<std::size_t>(j)]) ? 1 : 0;
        cur[i + 1] = std::max({prev[i], prev[i + 1], prev2[i] + match});
      }
    }
    std::int64_t* rotate = prev2;
    prev2 = prev;
    prev = cur;
    cur = rotate;
  }
  return prev[m];
}

}  // namespace

Index lcs_prefix_antidiag(SequenceView a, SequenceView b, bool parallel) {
  return parallel ? antidiag_impl<true>(a, b) : antidiag_impl<false>(a, b);
}

}  // namespace semilocal
