#include "align/edit.hpp"

#include <stdexcept>

namespace semilocal {
namespace {

void reject_separator(SequenceView s, const char* which) {
  for (const Symbol sym : s) {
    if (sym == kBlowupSeparator) {
      throw std::invalid_argument(std::string("EditDistanceIndex: input ") + which +
                                  " uses the reserved separator symbol");
    }
  }
}

// The kernel of (blow(a), blow(b)), after checking neither input uses the
// separator.
SemiLocalKernel blown_kernel(SequenceView a, SequenceView b, const SemiLocalOptions& opts) {
  reject_separator(a, "a");
  reject_separator(b, "b");
  return semi_local_kernel(blow_up(a), blow_up(b), opts);
}

}  // namespace

Sequence blow_up(SequenceView s) {
  Sequence out;
  out.reserve(2 * s.size());
  for (const Symbol sym : s) {
    out.push_back(sym);
    out.push_back(kBlowupSeparator);
  }
  return out;
}

Index levenshtein_via_lcs(SequenceView a, SequenceView b, const SemiLocalOptions& opts) {
  reject_separator(a, "a");
  reject_separator(b, "b");
  const auto blown_a = blow_up(a);
  const auto blown_b = blow_up(b);
  const Index lcs = lcs_semilocal(blown_a, blown_b, opts);
  return static_cast<Index>(a.size()) + static_cast<Index>(b.size()) - lcs;
}

EditDistanceIndex::EditDistanceIndex(SequenceView a, SequenceView b,
                                     const SemiLocalOptions& opts)
    : m_(static_cast<Index>(a.size())),
      n_(static_cast<Index>(b.size())),
      index_(blown_kernel(a, b, opts)) {}

Index EditDistanceIndex::window(Index j0, Index j1) const {
  if (j0 < 0 || j1 < j0 || j1 > n_) {
    throw std::out_of_range("EditDistanceIndex::window: need 0 <= j0 <= j1 <= n");
  }
  // blow(b)[2*j0, 2*j1) == blow(b[j0, j1)).
  return m_ + (j1 - j0) - index_.string_substring(2 * j0, 2 * j1);
}

Index EditDistanceIndex::a_window(Index i0, Index i1) const {
  if (i0 < 0 || i1 < i0 || i1 > m_) {
    throw std::out_of_range("EditDistanceIndex::a_window: need 0 <= i0 <= i1 <= m");
  }
  return (i1 - i0) + n_ - index_.substring_string(2 * i0, 2 * i1);
}

Index EditDistanceIndex::prefix_suffix(Index k, Index l) const {
  if (k < 0 || k > m_ || l < 0 || l > n_) {
    throw std::out_of_range("EditDistanceIndex::prefix_suffix: arguments out of range");
  }
  return k + (n_ - l) - index_.prefix_suffix(2 * k, 2 * l);
}

std::pair<Index, Index> EditDistanceIndex::best_window(Index width, Index stride) const {
  if (width < 0 || width > n_) {
    throw std::invalid_argument("EditDistanceIndex::best_window: width outside [0, n]");
  }
  if (stride <= 0) throw std::invalid_argument("EditDistanceIndex::best_window: bad stride");
  Index best_start = 0;
  Index best = window(0, width);
  for (Index j0 = stride; j0 + width <= n_; j0 += stride) {
    const Index d = window(j0, j0 + width);
    if (d < best) {
      best = d;
      best_start = j0;
    }
  }
  return {best_start, best};
}

}  // namespace semilocal
