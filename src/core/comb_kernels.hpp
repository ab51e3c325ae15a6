// Explicit SIMD kernels for the anti-diagonal combing inner loop, with
// one-time runtime CPU dispatch.
//
// The branchless strand update of Listing 4 is a compare-and-swap network
// (Krusche & Tiskin, arXiv:0903.3579): per cell,
//
//   match = (a_rev[j] == b[j]);
//   h'[j] = match ? v[j] : min(h[j], v[j]);
//   v'[j] = match ? h[j] : max(h[j], v[j]);
//
// which is the paper's Section 6 AVX-512 suggestion. With miss = (a_rev !=
// b), a merge-masked min writes min(h, v) into the miss lanes of a copy of v
// (giving h') and a merge-masked max writes max(h, v) into the miss lanes of
// a copy of h (giving v'): one compare, one min and one max per vector. The
// AVX-512 u16 kernel is exactly that; the u32 kernel keeps the older
// unmasked min/max plus two blends.
//
// This header exposes a portable scalar kernel (the autovectorized
// bitwise-select loop, i.e. the paper's semi_antidiag_SIMD inner loop),
// hand-written AVX-512 kernels for both strand widths (uint16_t and
// uint32_t), and a CPUID-based dispatcher resolved once per process. A
// hand-written tier is kept only where bench_micro shows it beating the
// scalar kernel: AVX2 kernels did not (on an AVX2-only CPU the scalar kernel
// runs; built with -march=native it autovectorises to AVX2 itself), AVX-512
// does on both widths.
//
// 16-bit strands read 16-bit symbol codes (Workspace::codes), 32-bit strands
// the raw 32-bit Symbols: the u16 working set per cell is then 8 bytes, and
// the AVX-512 u16 kernel needs a single 32-lane compare per vector.
//
// Every implementation produces bit-identical strand arrays: the dispatch
// is purely a throughput decision, never a semantic one.
//
// Dispatch order: SEMILOCAL_KERNEL environment override (scalar|avx512) if
// set and supported, else the widest ISA the CPU supports.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "util/types.hpp"

namespace semilocal {

/// Instruction-set tiers for the comb inner loop.
enum class KernelIsa {
  kAuto,    ///< resolve via kernel_dispatch() (env override or best CPU tier)
  kScalar,  ///< portable branchless loop (compiler autovectorization only)
  kAvx512,  ///< 512-bit vpminu/vpmaxu: merge-masked (u16, needs BW), blended (u32)
};

/// The symbol representation the kernels for one strand width read: 16-bit
/// codes for 16-bit strands, Symbols for 32-bit strands.
template <typename StrandT>
using CombSymbol = std::conditional_t<sizeof(StrandT) == 2, std::uint16_t, Symbol>;

/// Combs `len` consecutive cells of one anti-diagonal segment. All pointers
/// are pre-offset to the segment start: cell j reads symbols a_rev[j], b[j]
/// and updates strands h[j], v[j].
template <typename StrandT>
using CombCellsFn = void (*)(const CombSymbol<StrandT>* a_rev,
                             const CombSymbol<StrandT>* b, StrandT* h, StrandT* v,
                             Index len);

/// Function-pointer table for one ISA tier, covering both strand widths.
struct CombKernelTable {
  CombCellsFn<std::uint16_t> u16;
  CombCellsFn<std::uint32_t> u32;
  KernelIsa isa;
  std::string_view name;  ///< "scalar" | "avx512"

  template <typename StrandT>
  [[nodiscard]] CombCellsFn<StrandT> get() const {
    if constexpr (sizeof(StrandT) == 2) {
      return u16;
    } else {
      static_assert(sizeof(StrandT) == 4, "strands are 16- or 32-bit");
      return u32;
    }
  }
};

/// True when this process can execute the given tier (kScalar and kAuto are
/// always true).
[[nodiscard]] bool kernel_isa_supported(KernelIsa isa);

/// The table for an explicit tier. Requesting an unsupported tier returns
/// the scalar table (callers probing variants should check
/// kernel_isa_supported first).
[[nodiscard]] const CombKernelTable& kernel_table(KernelIsa isa);

/// The process-wide dispatch decision: SEMILOCAL_KERNEL override when valid,
/// otherwise the widest supported tier. Resolved once, on first call.
[[nodiscard]] const CombKernelTable& kernel_dispatch();

/// Resolves a CombOptions-style request: kAuto defers to kernel_dispatch(),
/// anything else picks that tier (falling back to scalar if unsupported).
[[nodiscard]] const CombKernelTable& resolve_kernels(KernelIsa isa);

}  // namespace semilocal
