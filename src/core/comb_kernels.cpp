#include "core/comb_kernels.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/bits.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define SEMILOCAL_X86 1
#include <immintrin.h>
#else
#define SEMILOCAL_X86 0
#endif

namespace semilocal {
namespace {

// ---------------------------------------------------------------------------
// Scalar tier: the bitwise-select formulation of Listing 4 (the paper's
// semi_antidiag_SIMD inner loop), left to the compiler's autovectorizer.
// This is both the portable fallback and the baseline the explicit kernels
// are benchmarked against.
// ---------------------------------------------------------------------------

template <typename StrandT>
void comb_cells_scalar(const CombSymbol<StrandT>* __restrict a_rev,
                       const CombSymbol<StrandT>* __restrict b,
                       StrandT* __restrict h, StrandT* __restrict v, Index len) {
#pragma omp simd
  for (Index j = 0; j < len; ++j) {
    const StrandT hs = h[j];
    const StrandT vs = v[j];
    const StrandT p = static_cast<StrandT>((a_rev[j] == b[j]) | (hs > vs));
    h[j] = select_if(hs, vs, p);
    v[j] = select_if(vs, hs, p);
  }
}

#if SEMILOCAL_X86

// ---------------------------------------------------------------------------
// AVX-512 tier: masked vpminu/vpmaxu + mask blends, exactly the paper's
// Section 6 sketch. Tails use masked loads/stores, so there is no scalar
// remainder loop at all. u16 needs AVX512BW (vpminuw/vpmaxuw on zmm).
// ---------------------------------------------------------------------------

// GCC 12 reports the maskz-load intrinsics' internal zero vector as
// maybe-uninitialized; the intrinsic defines every masked-off lane as zero.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

// One full-width (16-cell) unmasked step of the u32 kernel.
__attribute__((target("avx512f"), always_inline)) inline
void avx512_u32_step(const Symbol* __restrict a_rev, const Symbol* __restrict b,
                     std::uint32_t* __restrict h, std::uint32_t* __restrict v) {
  const __m512i sa = _mm512_loadu_si512(a_rev);
  const __m512i sb = _mm512_loadu_si512(b);
  const __mmask16 match = _mm512_cmpeq_epi32_mask(sa, sb);
  const __m512i hs = _mm512_loadu_si512(h);
  const __m512i vs = _mm512_loadu_si512(v);
  const __m512i mn = _mm512_min_epu32(hs, vs);
  const __m512i mx = _mm512_max_epu32(hs, vs);
  _mm512_storeu_si512(h, _mm512_mask_blend_epi32(match, mn, vs));
  _mm512_storeu_si512(v, _mm512_mask_blend_epi32(match, mx, hs));
}

__attribute__((target("avx512f")))
void comb_cells_avx512_u32(const Symbol* __restrict a_rev, const Symbol* __restrict b,
                           std::uint32_t* __restrict h, std::uint32_t* __restrict v,
                           Index len) {
  Index j = 0;
  // Unmasked main loop, unrolled x2: masked loads/stores on full lanes cost
  // real throughput, so the mask is confined to the remainder.
  for (; j + 32 <= len; j += 32) {
    avx512_u32_step(a_rev + j, b + j, h + j, v + j);
    avx512_u32_step(a_rev + j + 16, b + j + 16, h + j + 16, v + j + 16);
  }
  if (j + 16 <= len) {
    avx512_u32_step(a_rev + j, b + j, h + j, v + j);
    j += 16;
  }
  if (j < len) {
    const __mmask16 lane = static_cast<__mmask16>((1u << (len - j)) - 1);
    const __m512i sa = _mm512_maskz_loadu_epi32(lane, a_rev + j);
    const __m512i sb = _mm512_maskz_loadu_epi32(lane, b + j);
    const __mmask16 match = _mm512_mask_cmpeq_epi32_mask(lane, sa, sb);
    const __m512i hs = _mm512_maskz_loadu_epi32(lane, h + j);
    const __m512i vs = _mm512_maskz_loadu_epi32(lane, v + j);
    const __m512i mn = _mm512_min_epu32(hs, vs);
    const __m512i mx = _mm512_max_epu32(hs, vs);
    _mm512_mask_storeu_epi32(h + j, lane, _mm512_mask_blend_epi32(match, mn, vs));
    _mm512_mask_storeu_epi32(v + j, lane, _mm512_mask_blend_epi32(match, mx, hs));
  }
}

// One full-width (32-cell) unmasked step of the u16 kernel: 16-bit symbol
// codes, so one 32-lane compare yields the whole match mask.
__attribute__((target("avx512f,avx512bw"), always_inline)) inline
void avx512_u16_step(const std::uint16_t* __restrict a_rev,
                     const std::uint16_t* __restrict b,
                     std::uint16_t* __restrict h, std::uint16_t* __restrict v) {
  const __mmask32 match =
      _mm512_cmpeq_epi16_mask(_mm512_loadu_si512(a_rev), _mm512_loadu_si512(b));
  const __m512i hs = _mm512_loadu_si512(h);
  const __m512i vs = _mm512_loadu_si512(v);
  const __m512i mn = _mm512_min_epu16(hs, vs);
  const __m512i mx = _mm512_max_epu16(hs, vs);
  _mm512_storeu_si512(h, _mm512_mask_blend_epi16(match, mn, vs));
  _mm512_storeu_si512(v, _mm512_mask_blend_epi16(match, mx, hs));
}

__attribute__((target("avx512f,avx512bw")))
void comb_cells_avx512_u16(const std::uint16_t* __restrict a_rev,
                           const std::uint16_t* __restrict b,
                           std::uint16_t* __restrict h, std::uint16_t* __restrict v,
                           Index len) {
  Index j = 0;
  for (; j + 64 <= len; j += 64) {
    avx512_u16_step(a_rev + j, b + j, h + j, v + j);
    avx512_u16_step(a_rev + j + 32, b + j + 32, h + j + 32, v + j + 32);
  }
  if (j + 32 <= len) {
    avx512_u16_step(a_rev + j, b + j, h + j, v + j);
    j += 32;
  }
  if (j < len) {
    const __mmask32 lane = static_cast<__mmask32>((1ull << (len - j)) - 1);
    const __m512i sa = _mm512_maskz_loadu_epi16(lane, a_rev + j);
    const __m512i sb = _mm512_maskz_loadu_epi16(lane, b + j);
    const __mmask32 match = _mm512_mask_cmpeq_epi16_mask(lane, sa, sb);
    const __m512i hs = _mm512_maskz_loadu_epi16(lane, h + j);
    const __m512i vs = _mm512_maskz_loadu_epi16(lane, v + j);
    const __m512i mn = _mm512_min_epu16(hs, vs);
    const __m512i mx = _mm512_max_epu16(hs, vs);
    _mm512_mask_storeu_epi16(h + j, lane, _mm512_mask_blend_epi16(match, mn, vs));
    _mm512_mask_storeu_epi16(v + j, lane, _mm512_mask_blend_epi16(match, mx, hs));
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // SEMILOCAL_X86

constexpr CombKernelTable kScalarTable{
    &comb_cells_scalar<std::uint16_t>, &comb_cells_scalar<std::uint32_t>,
    KernelIsa::kScalar, "scalar"};

#if SEMILOCAL_X86
constexpr CombKernelTable kAvx512Table{
    &comb_cells_avx512_u16, &comb_cells_avx512_u32, KernelIsa::kAvx512, "avx512"};
#endif

KernelIsa best_supported_isa() {
#if SEMILOCAL_X86
  // u16 strands double the lane count, so the 512-bit tier requires BW;
  // VL is not needed (tails are mask-handled at full width).
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw")) {
    return KernelIsa::kAvx512;
  }
#endif
  return KernelIsa::kScalar;
}

const CombKernelTable& resolve_dispatch() {
  KernelIsa pick = best_supported_isa();
  if (const char* env = std::getenv("SEMILOCAL_KERNEL")) {
    KernelIsa requested = pick;
    bool known = true;
    if (std::strcmp(env, "scalar") == 0) {
      requested = KernelIsa::kScalar;
    } else if (std::strcmp(env, "avx512") == 0) {
      requested = KernelIsa::kAvx512;
    } else {
      known = false;
      std::fprintf(stderr,
                   "semilocal: ignoring unknown SEMILOCAL_KERNEL=%s "
                   "(want scalar|avx512)\n", env);
    }
    if (known) {
      if (kernel_isa_supported(requested)) {
        pick = requested;
      } else {
        std::fprintf(stderr,
                     "semilocal: SEMILOCAL_KERNEL=%s not supported by this CPU, "
                     "using %s\n", env,
                     std::string(kernel_table(pick).name).c_str());
      }
    }
  }
  return kernel_table(pick);
}

}  // namespace

bool kernel_isa_supported(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAuto:
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx512:
#if SEMILOCAL_X86
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0;
#else
      return false;
#endif
  }
  return false;
}

const CombKernelTable& kernel_table(KernelIsa isa) {
#if SEMILOCAL_X86
  if (isa == KernelIsa::kAvx512 && kernel_isa_supported(KernelIsa::kAvx512)) {
    return kAvx512Table;
  }
#endif
  if (isa == KernelIsa::kAuto) return kernel_dispatch();
  return kScalarTable;
}

const CombKernelTable& kernel_dispatch() {
  static const CombKernelTable& table = resolve_dispatch();
  return table;
}

const CombKernelTable& resolve_kernels(KernelIsa isa) {
  if (isa == KernelIsa::kAuto) return kernel_dispatch();
  return kernel_table(isa);
}

}  // namespace semilocal
