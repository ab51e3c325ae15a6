// Reusable scratch memory for the semi-local kernel hot path.
//
// Every comb_antidiag / comb_load_balanced invocation needs the pair's
// symbols in the form its kernels read (16-bit codes of reversed `a` and of
// `b` for 16-bit strands, a reversed copy of `a` for 32-bit strands), one or
// three pairs of strand arrays, and (for the stitched variants) steady-ant
// scratch. A Workspace owns all of those buffers, grows them geometrically,
// and leases them out per call, so a caller that serves many comparisons
// performs zero steady-state heap allocation for scratch -- only the
// returned kernels allocate.
//
// Lifetime rules:
//   * A Workspace must not be shared between threads. Parallel callers use
//     one Workspace per thread (see tls_workspace()).
//   * Leases are per top-level call: every public entry point that accepts
//     a Workspace calls reset() on entry, invalidating spans handed out by
//     the previous call. Never hold a leased span across calls.
//   * Buffers only grow; shrink by destroying the Workspace.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "braid/steady_ant.hpp"
#include "util/types.hpp"

namespace semilocal {

namespace detail {

/// A pool of same-typed buffers leased out in stack order within one call.
template <typename T>
class BufferPool {
 public:
  std::span<T> lease(std::size_t n) {
    if (used_ == buffers_.size()) buffers_.emplace_back();
    std::vector<T>& buf = buffers_[used_++];
    if (buf.size() < n) {
      ++growths_;
      buf.reserve(std::bit_ceil(n));
      buf.resize(n);
    }
    return {buf.data(), n};
  }

  void reset() { used_ = 0; }
  [[nodiscard]] std::size_t growths() const { return growths_; }

 private:
  std::vector<std::vector<T>> buffers_;
  std::size_t used_ = 0;
  std::size_t growths_ = 0;
};

}  // namespace detail

/// Per-caller (or per-thread) scratch for repeated kernel computations.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Reversed copy of `a`, leased like the strand buffers.
  std::span<const Symbol> reversed(SequenceView a);

  /// A pair's symbols as 16-bit codes, for the 16-bit strand kernels.
  struct SymbolCodes {
    std::span<const std::uint16_t> a_rev;  ///< codes of `a`, reversed
    std::span<const std::uint16_t> b;      ///< codes of `b`, in order
  };

  /// Codes the pair's symbols injectively into 16 bits: `s - min` when the
  /// symbols span fewer than 2^16 values, else the symbol's rank among the
  /// pair's sorted distinct symbols. Equal symbols get equal codes and
  /// distinct symbols distinct ones, so every comb equality test is
  /// unchanged. Requires a.size() + b.size() <= 2^16 (a pair has at most
  /// that many distinct symbols); the 16-bit strand bound m + n < 2^16
  /// implies it.
  SymbolCodes codes(SequenceView a, SequenceView b);

  /// Leases an uninitialized strand buffer of `n` entries.
  template <typename StrandT>
  std::span<StrandT> strands(std::size_t n) {
    if constexpr (sizeof(StrandT) == 2) {
      return u16_.lease(n);
    } else {
      static_assert(sizeof(StrandT) == 4, "strands are 16- or 32-bit");
      return u32_.lease(n);
    }
  }

  /// Steady-ant scratch (ping-pong buffers + arena) for stitched variants.
  AntWorkspace& ant() { return ant_; }

  /// Invalidates all leases from the previous call. Called on entry by the
  /// public combing entry points; callers only need it when using the
  /// low-level lease API directly.
  void reset();

  /// Number of buffer-growth (re)allocations since construction, across all
  /// pools. Stops changing once the workspace is warm for the sizes it
  /// serves -- the allocation-hygiene tests assert exactly that.
  [[nodiscard]] std::size_t growth_events() const;

 private:
  detail::BufferPool<Symbol> symbols_;
  detail::BufferPool<std::uint16_t> u16_;
  detail::BufferPool<std::uint32_t> u32_;
  AntWorkspace ant_;
};

/// This thread's lazily-constructed persistent Workspace. OpenMP keeps its
/// thread pool alive across parallel regions, so per-thread workspaces warm
/// up once and then serve every subsequent batch/tile on that thread without
/// allocating.
Workspace& tls_workspace();

}  // namespace semilocal
