// Property tests for the runtime-dispatched SIMD comb kernels
// (core/comb_kernels.hpp) and the zero-allocation Workspace path.
//
// Every dispatch variant must produce strand arrays bit-identical to the
// scalar tier, over randomized inputs covering both strand widths, vector
// tails, the m > n flip path, and the 16-bit / 32-bit strand boundary. The
// serial sweep's row bands and the 16-bit symbol codes the u16 kernels read
// must leave every kernel equal to the row-major oracle.
//
// This translation unit also replaces global operator new/delete with
// counting versions, which lets the allocation-hygiene tests assert that a
// warm Workspace serves repeated kernel computations with no steady-state
// scratch allocation (only the returned kernel objects allocate).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <new>
#include <random>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "core/comb_kernels.hpp"
#include "core/iterative_combing.hpp"
#include "core/workspace.hpp"
#include "oracles.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

// ---------------------------------------------------------------------------
// Counting allocator hook. Linked into this test binary only.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace semilocal {
namespace {

std::vector<KernelIsa> supported_isas() {
  std::vector<KernelIsa> out = {KernelIsa::kScalar};
  if (kernel_isa_supported(KernelIsa::kAvx512)) out.push_back(KernelIsa::kAvx512);
  return out;
}

// ---------------------------------------------------------------------------
// Raw kernel functions against the scalar tier, elementwise.
// ---------------------------------------------------------------------------

// u16 kernels read 16-bit symbol codes, u32 kernels Symbols. The alphabet
// is small (dense matches, so both blend arms run) but spans the code
// width's top bit, so a compare that dropped or sign-extended high bits
// would disagree with the scalar tier.
template <typename StrandT>
void check_raw_kernel_matches_scalar(Index len, std::uint64_t seed) {
  using Sym = CombSymbol<StrandT>;
  const Sym alphabet[] = {0, 1, static_cast<Sym>(0x8000), static_cast<Sym>(0xFFFF)};
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, 3);
  std::uniform_int_distribution<std::uint32_t> strand(
      0, std::numeric_limits<StrandT>::max());
  std::vector<Sym> a(static_cast<std::size_t>(len)), b(static_cast<std::size_t>(len));
  std::vector<StrandT> h(static_cast<std::size_t>(len)), v(static_cast<std::size_t>(len));
  for (auto& s : a) s = alphabet[pick(rng)];
  for (auto& s : b) s = alphabet[pick(rng)];
  for (auto& s : h) s = static_cast<StrandT>(strand(rng));
  for (auto& s : v) s = static_cast<StrandT>(strand(rng));

  std::vector<StrandT> h_ref = h, v_ref = v;
  kernel_table(KernelIsa::kScalar).get<StrandT>()(a.data(), b.data(), h_ref.data(),
                                                  v_ref.data(), len);
  for (const KernelIsa isa : supported_isas()) {
    std::vector<StrandT> h_got = h, v_got = v;
    kernel_table(isa).get<StrandT>()(a.data(), b.data(), h_got.data(), v_got.data(), len);
    EXPECT_EQ(h_got, h_ref) << "isa=" << static_cast<int>(isa) << " len=" << len
                            << " width=" << sizeof(StrandT) * 8;
    EXPECT_EQ(v_got, v_ref) << "isa=" << static_cast<int>(isa) << " len=" << len
                            << " width=" << sizeof(StrandT) * 8;
  }
}

TEST(CombKernels, RawKernelsMatchScalarOverLengthsAndSeeds) {
  // Lengths straddle every vector width and tail shape (8/16/32 lanes).
  for (const Index len : {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100, 1000}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      check_raw_kernel_matches_scalar<std::uint16_t>(len, seed * 1000 + len);
      check_raw_kernel_matches_scalar<std::uint32_t>(len, seed * 2000 + len);
    }
  }
}

TEST(CombKernels, DispatchReportsASupportedTier) {
  const CombKernelTable& t = kernel_dispatch();
  EXPECT_TRUE(kernel_isa_supported(t.isa));
  EXPECT_NE(t.u16, nullptr);
  EXPECT_NE(t.u32, nullptr);
  // kAuto resolves to the dispatched table; explicit tiers resolve to
  // themselves when supported.
  EXPECT_EQ(&resolve_kernels(KernelIsa::kAuto), &t);
  for (const KernelIsa isa : supported_isas()) {
    EXPECT_EQ(kernel_table(isa).isa, isa);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: comb_antidiag with every forced tier vs the row-major oracle.
// ---------------------------------------------------------------------------

TEST(CombKernels, EndToEndEveryIsaMatchesRowMajor) {
  for (const auto& [m, n] : std::vector<std::pair<Index, Index>>{
           {1, 1}, {7, 33}, {64, 64}, {65, 190}, {150, 40} /* m > n flip path */}) {
    const auto a = testing::random_string(m, 4, m * 31 + n);
    const auto b = testing::random_string(n, 4, m * 37 + n + 1);
    const auto ref = comb_rowmajor(a, b);
    for (const KernelIsa isa : supported_isas()) {
      for (const bool parallel : {false, true}) {
        for (const bool allow_16bit : {false, true}) {
          const auto k = comb_antidiag(
              a, b, {.parallel = parallel, .allow_16bit = allow_16bit, .isa = isa});
          EXPECT_EQ(k.permutation(), ref.permutation())
              << "isa=" << static_cast<int>(isa) << " parallel=" << parallel
              << " allow_16bit=" << allow_16bit << " m=" << m << " n=" << n;
        }
      }
    }
  }
}

TEST(CombKernels, LoadBalancedEveryIsaMatchesRowMajor) {
  const auto a = testing::random_string(48, 4, 7);
  const auto b = testing::random_string(131, 4, 8);
  const auto ref = comb_rowmajor(a, b);
  for (const KernelIsa isa : supported_isas()) {
    const auto k = comb_load_balanced(a, b, {.isa = isa});
    EXPECT_EQ(k.permutation(), ref.permutation()) << "isa=" << static_cast<int>(isa);
  }
}

// The strand-width switch sits at m + n = 2^16: the last size served by
// 16-bit strands and the first that must fall back to 32-bit. A thin grid
// (small m) keeps the cell count tractable.
TEST(CombKernels, SixteenBitBoundaryIsBitExactAcrossIsas) {
  const Index m = 5;
  for (const Index n : {Index{65530}, Index{65531}}) {  // m + n = 2^16 - 1, 2^16
    const auto a = testing::random_string(m, 2, 900 + n);
    const auto b = testing::random_string(n, 2, 901 + n);
    const auto ref =
        comb_antidiag(a, b, {.allow_16bit = false, .isa = KernelIsa::kScalar});
    for (const KernelIsa isa : supported_isas()) {
      const auto k = comb_antidiag(a, b, {.allow_16bit = true, .isa = isa});
      EXPECT_EQ(k.permutation(), ref.permutation())
          << "isa=" << static_cast<int>(isa) << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Row bands of the serial sweep.
// ---------------------------------------------------------------------------

// Must equal kCombBandRows in core/iterative_combing.cpp: the end-to-end
// cases below sit on its band boundaries.
constexpr Index kBand = 2048;

// The sweep with an explicit schedule against the row-major oracle, for
// every tier, both strand widths and all three inner-loop modes.
void check_bands_match_row_major(Index m, Index n, Index band_rows) {
  const auto a = testing::random_string(m, 4, 7000 + m * 3 + band_rows);
  const auto b = testing::random_string(n, 4, 7001 + n * 5 + band_rows);
  const auto ref = comb_rowmajor(a, b);
  for (const KernelIsa isa : supported_isas()) {
    for (const bool allow_16bit : {true, false}) {
      for (const CombOptions& o :
           {CombOptions{.allow_16bit = allow_16bit, .isa = isa},
            CombOptions{.allow_16bit = allow_16bit, .minmax = true, .isa = isa},
            CombOptions{.branchless = false, .allow_16bit = allow_16bit, .isa = isa}}) {
        EXPECT_EQ(detail::comb_antidiag_banded(a, b, o, band_rows).permutation(),
                  ref.permutation())
            << "isa=" << static_cast<int>(isa) << " allow_16bit=" << allow_16bit
            << " branchless=" << o.branchless << " minmax=" << o.minmax << " m=" << m
            << " n=" << n << " band=" << band_rows;
      }
    }
  }
}

// A band of 1 row, bands that do and do not divide m, and one band >= m.
TEST(CombBands, ExplicitBandHeightsMatchRowMajor) {
  for (const Index band_rows : {1, 7, 64}) {
    for (const Index m : {band_rows - 1, band_rows, band_rows + 1, 2 * band_rows + 1}) {
      if (m < 1) continue;
      for (const Index n : {m, m + 37}) check_bands_match_row_major(m, n, band_rows);
    }
  }
  check_bands_match_row_major(50, 60, 1000);  // one band >= m
  check_bands_match_row_major(90, 40, 7);     // m > n: bands of the shorter side
}

// The one-team parallel sweep (band_rows 0) with a real team, below the
// grain at which comb_antidiag would pick it: every tier, width and mode.
TEST(CombBands, TeamSweepMatchesRowMajor) {
  ThreadScope threads(4);
  for (const auto& [m, n] :
       std::vector<std::pair<Index, Index>>{{1, 5}, {37, 37}, {70, 300}, {301, 90}}) {
    check_bands_match_row_major(m, n, 0);
  }
}

// The public entry points at the library's band boundaries: the shorter side
// at band-1, band, band+1 and 2*band+1 rows, both strand widths, every tier,
// and the m > n flip (the longer string passed as `a`).
TEST(CombBands, EntryPointsAtBandBoundariesMatchRowMajor) {
  for (const Index rows : {kBand - 1, kBand, kBand + 1, 2 * kBand + 1}) {
    for (const bool flip : {false, true}) {
      const Index cols = rows + 45;
      const auto shorter = testing::random_string(rows, 4, 8000 + rows);
      const auto longer = testing::random_string(cols, 4, 9000 + rows);
      const Sequence& a = flip ? longer : shorter;
      const Sequence& b = flip ? shorter : longer;
      const auto ref = comb_rowmajor(a, b);
      for (const KernelIsa isa : supported_isas()) {
        for (const bool allow_16bit : {true, false}) {
          const CombOptions o{.allow_16bit = allow_16bit, .isa = isa};
          EXPECT_EQ(comb_antidiag(a, b, o).permutation(), ref.permutation())
              << "antidiag isa=" << static_cast<int>(isa) << " rows=" << rows
              << " flip=" << flip << " allow_16bit=" << allow_16bit;
          EXPECT_EQ(comb_load_balanced(a, b, o).permutation(), ref.permutation())
              << "load_balanced isa=" << static_cast<int>(isa) << " rows=" << rows
              << " flip=" << flip << " allow_16bit=" << allow_16bit;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 16-bit symbol codes.
// ---------------------------------------------------------------------------

// Codes must be injective and consistent across both sides: two symbols get
// equal codes exactly when they are equal.
void expect_codes_preserve_equality(const Sequence& a, const Sequence& b) {
  Workspace ws;
  const Workspace::SymbolCodes codes = ws.codes(a, b);
  ASSERT_EQ(codes.a_rev.size(), a.size());
  ASSERT_EQ(codes.b.size(), b.size());
  std::map<Symbol, std::uint16_t> code_of;
  std::map<std::uint16_t, Symbol> symbol_of;
  const auto check = [&](Symbol s, std::uint16_t c) {
    const auto [cs, new_symbol] = code_of.emplace(s, c);
    const auto [sc, new_code] = symbol_of.emplace(c, s);
    EXPECT_EQ(cs->second, c) << "symbol " << s << " got two codes";
    EXPECT_EQ(sc->second, s) << "code " << c << " shared by two symbols";
  };
  for (std::size_t i = 0; i < a.size(); ++i) check(a[i], codes.a_rev[a.size() - 1 - i]);
  for (std::size_t j = 0; j < b.size(); ++j) check(b[j], codes.b[j]);
}

// Every code-path input, end to end: all tiers and both modes of the
// branchless sweep against the row-major oracle on raw Symbols.
void expect_coded_kernels_match_row_major(const Sequence& a, const Sequence& b) {
  const auto ref = comb_rowmajor(a, b);
  for (const KernelIsa isa : supported_isas()) {
    for (const bool branchless : {true, false}) {
      EXPECT_EQ(comb_antidiag(a, b, {.branchless = branchless, .isa = isa}).permutation(),
                ref.permutation())
          << "isa=" << static_cast<int>(isa) << " branchless=" << branchless;
    }
    EXPECT_EQ(comb_antidiag(a, b, {.minmax = true, .isa = isa}).permutation(),
              ref.permutation());
    EXPECT_EQ(comb_load_balanced(a, b, {.isa = isa}).permutation(), ref.permutation());
  }
}

Sequence drawn_from(const std::vector<Symbol>& alphabet, Index length, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, alphabet.size() - 1);
  Sequence out(static_cast<std::size_t>(length));
  for (auto& s : out) s = alphabet[pick(rng)];
  return out;
}

TEST(SymbolCodes, CodeRuleIsOffsetOrRank) {
  const Sequence a = {-5, 70000, -5, 12};
  const Sequence b = {12, 65530, -5};  // max - min = 70005 >= 2^16: ranks
  const Sequence c = {-40000, -39000, -40000};
  const Sequence d = {-14465, -39000};  // max - min = 25535 < 2^16: offsets
  Workspace ws;
  const Workspace::SymbolCodes cd = ws.codes(c, d);
  EXPECT_EQ(std::vector<std::uint16_t>(cd.a_rev.begin(), cd.a_rev.end()),
            (std::vector<std::uint16_t>{0, 1000, 0}));
  EXPECT_EQ(std::vector<std::uint16_t>(cd.b.begin(), cd.b.end()),
            (std::vector<std::uint16_t>{25535, 1000}));
  const Workspace::SymbolCodes ab = ws.codes(a, b);  // sorted distinct: -5 12 65530 70000
  EXPECT_EQ(std::vector<std::uint16_t>(ab.a_rev.begin(), ab.a_rev.end()),
            (std::vector<std::uint16_t>{1, 0, 3, 0}));
  EXPECT_EQ(std::vector<std::uint16_t>(ab.b.begin(), ab.b.end()),
            (std::vector<std::uint16_t>{1, 2, 0}));
}

TEST(SymbolCodes, NegativeSymbols) {
  const std::vector<Symbol> alphabet = {-1, -2, -300, -65535};
  const auto a = drawn_from(alphabet, 150, 1);
  const auto b = drawn_from(alphabet, 230, 2);
  expect_codes_preserve_equality(a, b);
  expect_coded_kernels_match_row_major(a, b);
}

TEST(SymbolCodes, SymbolsAtOrAboveTwoToTheSixteen) {
  // Offsets from 2^16 (span < 2^16), then a span just past 2^16 (ranks).
  for (const std::vector<Symbol>& alphabet :
       {std::vector<Symbol>{65536, 65537, 131071, 70000},
        std::vector<Symbol>{65536, 65537, 131072, 70000}}) {
    const auto a = drawn_from(alphabet, 140, 3);
    const auto b = drawn_from(alphabet, 201, 4);
    expect_codes_preserve_equality(a, b);
    expect_coded_kernels_match_row_major(a, b);
  }
}

TEST(SymbolCodes, Int32ExtremesForceTheRankPath) {
  const std::vector<Symbol> alphabet = {std::numeric_limits<Symbol>::min(),
                                        std::numeric_limits<Symbol>::max(), 0, -1, 1};
  const auto a = drawn_from(alphabet, 170, 5);
  const auto b = drawn_from(alphabet, 190, 6);
  Workspace ws;
  const Workspace::SymbolCodes codes = ws.codes(a, b);
  // Five distinct symbols rank to codes 0..4.
  EXPECT_LE(*std::max_element(codes.b.begin(), codes.b.end()), 4);
  expect_codes_preserve_equality(a, b);
  expect_coded_kernels_match_row_major(a, b);
}

TEST(SymbolCodes, SingleSymbolAlphabet) {
  for (const Symbol s : {Symbol{0}, std::numeric_limits<Symbol>::min(),
                         std::numeric_limits<Symbol>::max()}) {
    const Sequence a(97, s);
    const Sequence b(130, s);
    Workspace ws;
    const Workspace::SymbolCodes codes = ws.codes(a, b);
    EXPECT_TRUE(std::all_of(codes.a_rev.begin(), codes.a_rev.end(),
                            [](std::uint16_t c) { return c == 0; }));
    EXPECT_TRUE(std::all_of(codes.b.begin(), codes.b.end(),
                            [](std::uint16_t c) { return c == 0; }));
    expect_coded_kernels_match_row_major(a, b);
  }
}

TEST(SymbolCodes, DistinctSymbolsUpToTheSixteenBitBound) {
  // m + n = 2^16 - 1 pairwise-distinct symbols spread over the whole int32
  // range: the rank path at its largest, every code used.
  const Index m = 3;
  const Index n = (Index{1} << 16) - 1 - m;
  Sequence a(static_cast<std::size_t>(m)), b(static_cast<std::size_t>(n));
  for (Index i = 0; i < m + n; ++i) {
    const Symbol s = static_cast<Symbol>(std::numeric_limits<Symbol>::min() + i * 65537);
    (i < m ? a[static_cast<std::size_t>(i)] : b[static_cast<std::size_t>(i - m)]) = s;
  }
  std::reverse(b.begin(), b.end());
  b[100] = a[1];  // one match
  expect_codes_preserve_equality(a, b);
  const auto ref = comb_antidiag(a, b, {.allow_16bit = false, .isa = KernelIsa::kScalar});
  for (const KernelIsa isa : supported_isas()) {
    EXPECT_EQ(comb_antidiag(a, b, {.isa = isa}).permutation(), ref.permutation())
        << "isa=" << static_cast<int>(isa);
  }
}

// ---------------------------------------------------------------------------
// Allocation hygiene: a warm Workspace must serve repeated kernel
// computations with zero scratch allocation. The returned kernel owns one
// heap block (its row->col array), built in-place and moved out; everything
// else must come from the workspace.
// ---------------------------------------------------------------------------

std::size_t allocations_during(const std::function<void()>& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(CombKernels, WarmWorkspaceDoesZeroScratchAllocation) {
  const auto a = rounded_normal_sequence(600, 1.0, 21);
  const auto b = rounded_normal_sequence(800, 1.0, 22);
  Workspace ws;
  SemiLocalKernel k;
  const auto call = [&] { k = comb_antidiag(a, b, {}, &ws); };
  call();
  call();  // fully warm
  const std::size_t warm_growth = ws.growth_events();
  const std::size_t steady = allocations_during(call);
  EXPECT_EQ(ws.growth_events(), warm_growth) << "workspace grew at steady state";
  // Result permutation: one block for row->col, one inside from_row_to_col's
  // validation/inverse bookkeeping at most. Scratch would add tens more.
  EXPECT_LE(steady, 4u);
  // Sanity: the kernel is still correct when served from a warm workspace.
  EXPECT_EQ(k.permutation(), comb_rowmajor(a, b).permutation());
}

// The same with symbols that force the rank-code path (its sort scratch is
// leased from the workspace too) and with 32-bit strands.
TEST(CombKernels, WarmWorkspaceDoesZeroScratchAllocationOnEveryCodePath) {
  const auto a = drawn_from({std::numeric_limits<Symbol>::min(), 0,
                             std::numeric_limits<Symbol>::max()}, 500, 23);
  const auto b = drawn_from({std::numeric_limits<Symbol>::min(), 0,
                             std::numeric_limits<Symbol>::max()}, 700, 24);
  for (const bool allow_16bit : {true, false}) {
    Workspace ws;
    SemiLocalKernel k;
    const auto call = [&] { k = comb_antidiag(a, b, {.allow_16bit = allow_16bit}, &ws); };
    call();
    call();
    const std::size_t warm_growth = ws.growth_events();
    const std::size_t steady = allocations_during(call);
    EXPECT_EQ(ws.growth_events(), warm_growth) << "allow_16bit=" << allow_16bit;
    EXPECT_LE(steady, 4u) << "allow_16bit=" << allow_16bit;
    EXPECT_EQ(k.permutation(), comb_rowmajor(a, b).permutation());
  }
}

TEST(CombKernels, ColdCallAllocatesMoreThanWarmCall) {
  const auto a = rounded_normal_sequence(700, 1.0, 31);
  const auto b = rounded_normal_sequence(900, 1.0, 32);
  std::size_t cold;
  {
    Workspace ws;
    cold = allocations_during([&] { (void)comb_antidiag(a, b, {}, &ws); });
    const std::size_t warm = allocations_during([&] { (void)comb_antidiag(a, b, {}, &ws); });
    EXPECT_LT(warm, cold);
  }
}

TEST(CombKernels, LoadBalancedWarmWorkspaceStopsGrowing) {
  const auto a = rounded_normal_sequence(150, 1.0, 41);
  const auto b = rounded_normal_sequence(400, 1.0, 42);
  Workspace ws;
  (void)comb_load_balanced(a, b, {}, {.precalc = true, .preallocate = true}, &ws);
  (void)comb_load_balanced(a, b, {}, {.precalc = true, .preallocate = true}, &ws);
  const std::size_t warm_growth = ws.growth_events();
  (void)comb_load_balanced(a, b, {}, {.precalc = true, .preallocate = true}, &ws);
  EXPECT_EQ(ws.growth_events(), warm_growth);
}

// ---------------------------------------------------------------------------
// Batched entry point.
// ---------------------------------------------------------------------------

TEST(CombKernels, BatchMatchesPerCallKernels) {
  std::vector<Sequence> storage;
  std::vector<SequencePair> pairs;
  for (int i = 0; i < 12; ++i) {
    storage.push_back(testing::random_string(40 + i * 13, 4, 100 + i));
    storage.push_back(testing::random_string(90 + i * 7, 4, 200 + i));
  }
  for (std::size_t i = 0; i < storage.size(); i += 2) {
    pairs.push_back({storage[i], storage[i + 1]});
  }
  for (const bool parallel : {false, true}) {
    const auto kernels = semi_local_kernel_batch(pairs, {.parallel = parallel});
    ASSERT_EQ(kernels.size(), pairs.size());
    std::vector<Index> scores(pairs.size());
    lcs_semilocal_batch(pairs, scores, {.parallel = parallel});
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto ref = semi_local_kernel(pairs[i].a, pairs[i].b);
      EXPECT_EQ(kernels[i].permutation(), ref.permutation()) << "pair " << i;
      EXPECT_EQ(scores[i], testing::lcs_oracle(pairs[i].a, pairs[i].b)) << "pair " << i;
    }
  }
}

TEST(CombKernels, BatchSteadyStateAllocatesOnlyResults) {
  std::vector<Sequence> storage;
  std::vector<SequencePair> pairs;
  for (int i = 0; i < 8; ++i) {
    storage.push_back(rounded_normal_sequence(300, 1.0, 300 + i));
    storage.push_back(rounded_normal_sequence(500, 1.0, 400 + i));
  }
  for (std::size_t i = 0; i < storage.size(); i += 2) {
    pairs.push_back({storage[i], storage[i + 1]});
  }
  std::vector<Index> scores(pairs.size());
  const auto run = [&] { lcs_semilocal_batch(pairs, scores, {}); };
  run();
  run();  // warm the serial thread's tls workspace
  const std::size_t steady = allocations_during(run);
  // Per pair: the transient kernel's permutation block(s); no combing
  // scratch. Generous bound: 4 blocks per pair.
  EXPECT_LE(steady, pairs.size() * 4);
}

TEST(CombKernels, BatchRunsUnderManyThreads) {
  // Functional check that the one-region batched path is race-free with a
  // full thread team (the throughput claim itself lives in bench_micro).
  std::vector<Sequence> storage;
  std::vector<SequencePair> pairs;
  for (int i = 0; i < 32; ++i) {
    storage.push_back(testing::random_string(120, 4, 500 + i));
    storage.push_back(testing::random_string(240, 4, 600 + i));
  }
  for (std::size_t i = 0; i < storage.size(); i += 2) {
    pairs.push_back({storage[i], storage[i + 1]});
  }
  ThreadScope threads(4);
  const auto kernels = semi_local_kernel_batch(pairs, {.parallel = true});
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(kernels[i].permutation(),
              comb_rowmajor(pairs[i].a, pairs[i].b).permutation())
        << "pair " << i;
  }
}

}  // namespace
}  // namespace semilocal
