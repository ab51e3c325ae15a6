// The semi-local LCS kernel P_{a,b} and its query interface.
//
// For strings a (|a| = m) and b (|b| = n), the kernel is a permutation
// matrix of order m + n that implicitly represents the whole
// (m+n+1) x (m+n+1) LCS matrix H_{a,b} of Definition 3.3:
//
//   H(i, j) = j - i + m - sigma(i, j),
//   sigma(i, j) = |{(r, c) nonzero in P_{a,b} : r >= i, c < j}|.
//
// Index semantics of the kernel (matching Listing 1): row r is the strand
// entering the LCS grid at start position r, where start positions number
// the left edge bottom-to-top 0..m-1 followed by the top edge left-to-right
// m..m+n-1; column c is the exit position, numbering the bottom edge
// left-to-right 0..n-1 followed by the right edge bottom-to-top n..n+m-1.
//
// Queries answer all four semi-local sub-problems (Definition 3.2). By
// default each query performs a dominance count in O(log^2) time through a
// merge-sort tree built lazily on first use (once, under a std::once_flag, so
// any number of threads may query one shared kernel); small kernels can
// instead materialize the dense distribution matrix for O(1) queries. The
// global score lcs() needs no structure at all: it is an O(m + n) read-off
// of the strands that cross.
#pragma once

#include <memory>
#include <mutex>
#include <optional>

#include "braid/monge.hpp"
#include "braid/permutation.hpp"
#include "braid/steady_ant.hpp"
#include "dominance/mergesort_tree.hpp"
#include "dominance/prefix_oracle.hpp"
#include "dominance/wavelet_tree.hpp"
#include "util/types.hpp"

namespace semilocal {

/// Implicit semi-local LCS solution for a fixed string pair.
class SemiLocalKernel {
 public:
  SemiLocalKernel() : lazy_tree_(std::make_unique<LazyTree>()) {}

  /// Wraps a kernel permutation of order m + n. Throws if sizes disagree.
  SemiLocalKernel(Permutation kernel, Index m, Index n);

  // Copying duplicates the kernel but not the lazily-built query caches.
  SemiLocalKernel(const SemiLocalKernel& other)
      : kernel_(other.kernel_),
        m_(other.m_),
        n_(other.n_),
        lazy_tree_(std::make_unique<LazyTree>()) {}
  SemiLocalKernel& operator=(const SemiLocalKernel& other) {
    if (this != &other) {
      kernel_ = other.kernel_;
      m_ = other.m_;
      n_ = other.n_;
      lazy_tree_ = std::make_unique<LazyTree>();
      dense_.reset();
      wavelet_.reset();
    }
    return *this;
  }
  // Moving carries the built caches along; a moved-from kernel may only be
  // assigned to or destroyed.
  SemiLocalKernel(SemiLocalKernel&&) = default;
  SemiLocalKernel& operator=(SemiLocalKernel&&) = default;

  [[nodiscard]] Index m() const { return m_; }
  [[nodiscard]] Index n() const { return n_; }
  [[nodiscard]] Index order() const { return m_ + n_; }
  [[nodiscard]] const Permutation& permutation() const { return kernel_; }

  /// Element H(i, j) of the semi-local LCS matrix, i, j in [0, m+n].
  [[nodiscard]] Index h(Index i, Index j) const;

  /// LCS(a, b): the global score. H(m, n) = n - sigma(m, n), and the rows
  /// >= m with columns < n are exactly the top-entry strands leaving through
  /// the bottom, so this counts them in O(m + n) without any dominance
  /// structure.
  [[nodiscard]] Index lcs() const;

  /// string-substring: LCS(a, b[j0, j1)), 0 <= j0 <= j1 <= n.
  [[nodiscard]] Index string_substring(Index j0, Index j1) const;

  /// substring-string: LCS(a[i0, i1), b), 0 <= i0 <= i1 <= m.
  [[nodiscard]] Index substring_string(Index i0, Index i1) const;

  /// prefix-suffix: LCS(a[0, k), b[l, n)).
  [[nodiscard]] Index prefix_suffix(Index k, Index l) const;

  /// suffix-prefix: LCS(a[s, m), b[0, j)).
  [[nodiscard]] Index suffix_prefix(Index s, Index j) const;

  /// Materializes the dense (m+n+1)^2 distribution table for O(1) queries
  /// (quadratic memory; only sensible for small inputs).
  void enable_dense_queries();

  /// Builds a wavelet tree for O(log n) queries in O(n log n) bits --
  /// faster per query and smaller than the default merge-sort tree.
  void enable_wavelet_queries();

  /// Full H matrix (size (m+n+1)^2), for tests and visualisation.
  [[nodiscard]] DenseMatrix to_h_matrix() const;

  /// Kernel for the swapped pair: P_{b,a} from P_{a,b} (Theorem 3.5, the
  /// "flip": a 180-degree rotation of the permutation matrix).
  [[nodiscard]] SemiLocalKernel flipped() const;

 private:
  [[nodiscard]] Index sigma(Index i, Index j) const;

  // The merge-sort tree behind sigma(), built on first use. Held by pointer
  // so the kernel stays movable (std::once_flag is not).
  struct LazyTree {
    std::once_flag once;
    std::unique_ptr<const MergesortTree> tree;
  };

  Permutation kernel_;
  Index m_ = 0;
  Index n_ = 0;
  std::unique_ptr<LazyTree> lazy_tree_;
  std::unique_ptr<DensePrefixOracle> dense_;  // optional
  std::unique_ptr<WaveletTree> wavelet_;      // optional
};

/// Kernel composition along a-concatenation (Theorem 3.4): from P_{a',b} and
/// P_{a'',b} builds P_{a'a'',b} = (Id_{m''} (+) P') (.) (P'' (+) Id_{m'}).
/// `ws` (optional) supplies reusable steady-ant scratch.
SemiLocalKernel compose_horizontal(const SemiLocalKernel& first,
                                   const SemiLocalKernel& second,
                                   const SteadyAntOptions& opts = {},
                                   AntWorkspace* ws = nullptr);

/// Kernel composition along b-concatenation: from P_{a,b'} and P_{a,b''}
/// builds P_{a,b'b''} by flipping, composing horizontally, flipping back.
SemiLocalKernel compose_vertical(const SemiLocalKernel& first,
                                 const SemiLocalKernel& second,
                                 const SteadyAntOptions& opts = {},
                                 AntWorkspace* ws = nullptr);

/// Direct sum helpers on permutations: identity block before / after.
Permutation prepend_identity(const Permutation& p, Index k);
Permutation append_identity(const Permutation& p, Index k);

}  // namespace semilocal
