#include "core/kernel.hpp"

#include <stdexcept>

#include "core/query_formulas.hpp"

namespace semilocal {

SemiLocalKernel::SemiLocalKernel(Permutation kernel, Index m, Index n)
    : kernel_(std::move(kernel)), m_(m), n_(n) {
  if (m < 0 || n < 0) throw std::invalid_argument("SemiLocalKernel: negative lengths");
  if (kernel_.size() != m + n) {
    throw std::invalid_argument("SemiLocalKernel: kernel order must be m + n");
  }
}

Index SemiLocalKernel::lcs() const {
  const auto& row_to_col = kernel_.row_to_col();
  Index crossings = 0;
  for (Index r = m_; r < m_ + n_; ++r) {
    if (row_to_col[static_cast<std::size_t>(r)] < n_) ++crossings;
  }
  return n_ - crossings;
}

Index SemiLocalKernel::h(Index i, Index j) const {
  check_h_range(order(), i, j);
  return h_from_sigma(m_, i, j, kernel_.dominance_sum(i, j));
}

Index SemiLocalKernel::string_substring(Index j0, Index j1) const {
  const HQuery q = string_substring_query(m_, n_, j0, j1);
  return h(q.i, q.j) - q.correction;
}

Index SemiLocalKernel::substring_string(Index i0, Index i1) const {
  const HQuery q = substring_string_query(m_, n_, i0, i1);
  return h(q.i, q.j) - q.correction;
}

Index SemiLocalKernel::prefix_suffix(Index k, Index l) const {
  const HQuery q = prefix_suffix_query(m_, n_, k, l);
  return h(q.i, q.j) - q.correction;
}

Index SemiLocalKernel::suffix_prefix(Index s, Index j) const {
  const HQuery q = suffix_prefix_query(m_, n_, s, j);
  return h(q.i, q.j) - q.correction;
}

DenseMatrix SemiLocalKernel::to_h_matrix() const {
  const DenseMatrix sigma_m = distribution_matrix(kernel_);
  DenseMatrix h(order() + 1, order() + 1, 0);
  for (Index i = 0; i <= order(); ++i) {
    for (Index j = 0; j <= order(); ++j) {
      h.at(i, j) = h_from_sigma(m_, i, j, sigma_m.at(i, j));
    }
  }
  return h;
}

SemiLocalKernel SemiLocalKernel::flipped() const {
  return SemiLocalKernel(kernel_.rotate180(), n_, m_);
}

Permutation prepend_identity(const Permutation& p, Index k) {
  Permutation out(p.size() + k);
  for (Index i = 0; i < k; ++i) out.set(i, i);
  for (const auto& [r, c] : p.nonzeros()) out.set(k + r, k + c);
  return out;
}

Permutation append_identity(const Permutation& p, Index k) {
  Permutation out(p.size() + k);
  for (const auto& [r, c] : p.nonzeros()) out.set(r, c);
  for (Index i = 0; i < k; ++i) out.set(p.size() + i, p.size() + i);
  return out;
}

SemiLocalKernel compose_horizontal(const SemiLocalKernel& first,
                                   const SemiLocalKernel& second,
                                   const SteadyAntOptions& opts, AntWorkspace* ws) {
  if (first.n() != second.n()) {
    throw std::invalid_argument("compose_horizontal: kernels must share b");
  }
  const Index m1 = first.m();
  const Index m2 = second.m();
  const Permutation x = prepend_identity(first.permutation(), m2);
  const Permutation y = append_identity(second.permutation(), m1);
  return SemiLocalKernel(multiply(x, y, opts, ws), m1 + m2, first.n());
}

SemiLocalKernel compose_vertical(const SemiLocalKernel& first,
                                 const SemiLocalKernel& second,
                                 const SteadyAntOptions& opts, AntWorkspace* ws) {
  if (first.m() != second.m()) {
    throw std::invalid_argument("compose_vertical: kernels must share a");
  }
  return compose_horizontal(first.flipped(), second.flipped(), opts, ws).flipped();
}

}  // namespace semilocal
