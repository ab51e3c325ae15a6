// Micro-benchmarks on the library's hot kernels, via google-benchmark.
// Complements the figure-reproduction binaries: these are the numbers to
// watch when optimizing an inner loop.
//
// Besides the google-benchmark suite, main() writes a machine-readable
// comb-kernel report to results/bench_micro.json: ns/cell for every
// dispatchable kernel tier (scalar / AVX-512, both strand widths;
// 16-bit strands on 16-bit symbol codes) plus single-call vs batched
// semi-local throughput, the serial sweep of an 8000^2 grid banded vs
// unbanded, and the pair-key digest's ns/symbol and GB/s at 1k and 16k
// symbols. Run with `--benchmark_filter=NONE` to emit only the JSON report.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bitlcs/bitwise_combing.hpp"
#include "braid/permutation.hpp"
#include "braid/steady_ant.hpp"
#include "core/api.hpp"
#include "core/comb_kernels.hpp"
#include "core/iterative_combing.hpp"
#include "core/workspace.hpp"
#include "engine/key.hpp"
#include "lcs/bitparallel.hpp"
#include "lcs/prefix.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace {

using namespace semilocal;

void BM_SteadyAntCombined(benchmark::State& state) {
  const Index n = state.range(0);
  const auto p = Permutation::random(n, 1);
  const auto q = Permutation::random(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(multiply_combined(p, q));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SteadyAntCombined)->Range(1 << 10, 1 << 16)->Complexity(benchmark::oNLogN);

void BM_SteadyAntBase(benchmark::State& state) {
  const Index n = state.range(0);
  const auto p = Permutation::random(n, 1);
  const auto q = Permutation::random(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(multiply_base(p, q));
  }
}
BENCHMARK(BM_SteadyAntBase)->Range(1 << 10, 1 << 16);

void BM_CombRowMajor(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = rounded_normal_sequence(n, 1.0, 1);
  const auto b = rounded_normal_sequence(n, 1.0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(semi_local_kernel(a, b, {.strategy = Strategy::kRowMajor}));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_CombRowMajor)->Range(1 << 10, 1 << 13);

void BM_CombAntidiagSimd(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = rounded_normal_sequence(n, 1.0, 1);
  const auto b = rounded_normal_sequence(n, 1.0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        semi_local_kernel(a, b, {.strategy = Strategy::kAntidiagSimd}));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_CombAntidiagSimd)->Range(1 << 10, 1 << 14);

// Band rows: comb_antidiag's serial sweep at band heights 512..8192 rows
// and unbanded (arg 0), on an 8000^2 grid with 16-bit strands on symbol
// codes and a 24000 x 48000 grid with 32-bit strands on Symbols.
// kCombBandRows in core/iterative_combing.cpp is read off these rows.
template <typename StrandT>
void BM_CombBand(benchmark::State& state) {
  constexpr bool kNarrow = sizeof(StrandT) == 2;
  const Index m = kNarrow ? 8000 : 24000;
  const Index n = kNarrow ? 8000 : 48000;
  const auto a = uniform_sequence(m, 4, 1);
  const auto b = uniform_sequence(n, 4, 2);
  const Index band_rows = state.range(0) == 0 ? m : state.range(0);
  const CombOptions opts{.allow_16bit = kNarrow};
  Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detail::comb_antidiag_banded(a, b, opts, band_rows, &ws));
  }
  state.SetItemsProcessed(state.iterations() * m * n);
}
BENCHMARK_TEMPLATE(BM_CombBand, std::uint16_t)
    ->Arg(0)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)->Arg(8192)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_CombBand, std::uint32_t)
    ->Arg(0)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

void BM_PrefixAntidiag(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = rounded_normal_sequence(n, 1.0, 1);
  const auto b = rounded_normal_sequence(n, 1.0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcs_prefix_antidiag(a, b, false));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_PrefixAntidiag)->Range(1 << 10, 1 << 14);

void BM_BitCombingOptimized(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = binary_sequence(n, 1);
  const auto b = binary_sequence(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcs_bit_combing(a, b, BitVariant::kOptimized, false));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BitCombingOptimized)->Range(1 << 14, 1 << 18);

void BM_BitparallelCrochemore(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = binary_sequence(n, 1);
  const auto b = binary_sequence(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcs_bitparallel_crochemore(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BitparallelCrochemore)->Range(1 << 14, 1 << 18);

// Grain rows: the same square input serial (second arg 0) and parallel (1)
// around the OpenMP grain cut-offs of util/parallel.hpp. Below the cut-off
// the parallel leg runs on one thread and must match the serial one; above
// it the team must win. kCombGrainCells was read off the antidiag comb rows
// (serial: the banded sweep; parallel: one team per sweep, one barrier per
// anti-diagonal), kLoadBalancedGrainCells off the load-balanced rows,
// kBitCombGrainCells off the bit-comb rows, kRowGrainCells off the prefix
// rows (one fork-join per anti-diagonal).
void BM_GrainAntidiagComb(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = uniform_sequence(n, 4, 1);
  const auto b = uniform_sequence(n, 4, 2);
  const SemiLocalOptions opts{.strategy = Strategy::kAntidiagSimd,
                              .parallel = state.range(1) != 0};
  for (auto _ : state) benchmark::DoNotOptimize(semi_local_kernel(a, b, opts));
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_GrainAntidiagComb)
    ->ArgsProduct({{256, 1024, 4096, 8192, 16384, 24576, 32768}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_GrainLoadBalancedComb(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = uniform_sequence(n, 4, 1);
  const auto b = uniform_sequence(n, 4, 2);
  const SemiLocalOptions opts{.strategy = Strategy::kLoadBalanced,
                              .parallel = state.range(1) != 0};
  for (auto _ : state) benchmark::DoNotOptimize(semi_local_kernel(a, b, opts));
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_GrainLoadBalancedComb)
    ->ArgsProduct({{4096, 8192, 16384, 24576}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_GrainBitComb(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = binary_sequence(n, 1);
  const auto b = binary_sequence(n, 2);
  const bool parallel = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcs_bit_combing(a, b, BitVariant::kOptimized, parallel));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_GrainBitComb)
    ->ArgsProduct({{256, 512, 1024, 4096, 16384}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_GrainPrefixAntidiag(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = uniform_sequence(n, 4, 1);
  const auto b = uniform_sequence(n, 4, 2);
  const bool parallel = state.range(1) != 0;
  for (auto _ : state) benchmark::DoNotOptimize(lcs_prefix_antidiag(a, b, parallel));
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_GrainPrefixAntidiag)
    ->ArgsProduct({{256, 1024, 4096, 8192, 16384}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Comb-kernel JSON report.
// ---------------------------------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Median-of-5 wall time of `fn()`, with one warmup call.
template <typename Fn>
double median_run_seconds(const Fn& fn) {
  fn();
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    runs.push_back(seconds_since(start));
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

/// ns/cell of one raw comb kernel over a resident strand window, on the
/// symbols that strand width reads (16-bit codes for u16 strands).
template <typename StrandT>
double kernel_ns_per_cell(CombCellsFn<StrandT> fn) {
  // L1-resident working set (4 arrays x 4-8 KB) so the measurement reflects
  // kernel compute speed, not L2 bandwidth -- the banded sweep keeps its
  // diagonals this close.
  constexpr Index kLen = 1 << 11;
  constexpr int kIters = 2000;
  const auto sa = uniform_sequence(kLen, 4, 1);
  const auto sb = uniform_sequence(kLen, 4, 2);
  std::vector<CombSymbol<StrandT>> a, b;
  if constexpr (sizeof(StrandT) == 2) {
    Workspace ws;
    const Workspace::SymbolCodes codes = ws.codes(sa, sb);
    a.assign(codes.a_rev.begin(), codes.a_rev.end());
    b.assign(codes.b.begin(), codes.b.end());
  } else {
    a = sa;
    b = sb;
  }
  std::vector<StrandT> h(kLen), v(kLen);
  for (Index i = 0; i < kLen; ++i) {
    h[static_cast<std::size_t>(i)] = static_cast<StrandT>(i);
    v[static_cast<std::size_t>(i)] = static_cast<StrandT>(kLen + i);
  }
  const double secs = median_run_seconds([&] {
    for (int it = 0; it < kIters; ++it) {
      fn(a.data(), b.data(), h.data(), v.data(), kLen);
    }
  });
  return secs / (static_cast<double>(kIters) * kLen) * 1e9;
}

// The baseline runtime dispatch exists to beat: the same select-formulation
// inner loop autovectorized for the portable x86-64 baseline ISA (SSE2) --
// what a distributable binary built without -march=native gets. On a
// -march=native build the scalar tier autovectorizes to the same ISA as the
// hand kernels, so it brackets them from the other side.
#if defined(__x86_64__)
#define SEMILOCAL_BENCH_PORTABLE 1
template <typename StrandT>
__attribute__((target("arch=x86-64")))
void comb_cells_portable(const CombSymbol<StrandT>* __restrict a_rev,
                         const CombSymbol<StrandT>* __restrict b,
                         StrandT* __restrict h, StrandT* __restrict v, Index len) {
  for (Index j = 0; j < len; ++j) {
    const StrandT hs = h[j];
    const StrandT vs = v[j];
    const bool p = (a_rev[j] == b[j]) | (hs > vs);
    h[j] = p ? vs : hs;
    v[j] = p ? hs : vs;
  }
}
#else
#define SEMILOCAL_BENCH_PORTABLE 0
#endif

struct KernelRow {
  std::string name;
  double u16_ns_per_cell;
  double u32_ns_per_cell;
};

void write_kernel_report(const std::string& path) {
  std::vector<KernelRow> rows;
#if SEMILOCAL_BENCH_PORTABLE
  rows.push_back({"portable_select_x86_64",
                  kernel_ns_per_cell<std::uint16_t>(&comb_cells_portable<std::uint16_t>),
                  kernel_ns_per_cell<std::uint32_t>(&comb_cells_portable<std::uint32_t>)});
#endif
  for (const KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx512}) {
    if (!kernel_isa_supported(isa)) continue;
    const CombKernelTable& t = kernel_table(isa);
    rows.push_back({std::string(t.name), kernel_ns_per_cell(t.u16),
                    kernel_ns_per_cell(t.u32)});
  }

  // Single-call vs batched semi-local throughput over a pool of pairs.
  constexpr int kPairs = 16;
  constexpr Index kLen = 2000;
  std::vector<Sequence> storage;
  std::vector<SequencePair> pairs;
  for (int i = 0; i < kPairs; ++i) {
    storage.push_back(rounded_normal_sequence(kLen, 1.0, 10 + i));
    storage.push_back(rounded_normal_sequence(kLen, 1.0, 100 + i));
  }
  for (std::size_t i = 0; i < storage.size(); i += 2) {
    pairs.push_back({storage[i], storage[i + 1]});
  }
  std::vector<Index> scores(pairs.size());
  const double per_call_s = median_run_seconds([&] {
    for (const auto& [a, b] : pairs) {
      benchmark::DoNotOptimize(lcs_semilocal(a, b, {}));
    }
  });
  const double batched_s = median_run_seconds([&] {
    lcs_semilocal_batch(pairs, scores, {.parallel = true});
  });

  // The serial sweep on a whole 8000^2 grid (16-bit strands on codes):
  // comb_antidiag at the library's band height against one unbanded sweep.
  constexpr Index kGrid = 8000;
  const auto ga = uniform_sequence(kGrid, 4, 1);
  const auto gb = uniform_sequence(kGrid, 4, 2);
  Workspace ws;
  const double cells = static_cast<double>(kGrid) * kGrid;
  const double unbanded_ns = median_run_seconds([&] {
    benchmark::DoNotOptimize(detail::comb_antidiag_banded(ga, gb, {}, kGrid, &ws));
  }) / cells * 1e9;
  const double banded_ns = median_run_seconds([&] {
    benchmark::DoNotOptimize(comb_antidiag(ga, gb, {}, &ws));
  }) / cells * 1e9;

  // The content digest every warm read pays once per side (engine/key).
  struct DigestRow {
    Index symbols;
    double ns_per_symbol;
  };
  std::vector<DigestRow> digests;
  for (const Index symbols : {Index{1} << 10, Index{1} << 14}) {
    const auto s = uniform_sequence(symbols, 4, 7);
    const int iters = static_cast<int>((Index{1} << 24) / symbols);
    const double secs = median_run_seconds([&] {
      for (int it = 0; it < iters; ++it) benchmark::DoNotOptimize(sequence_digest(s));
    });
    digests.push_back({symbols, secs / (static_cast<double>(iters) * symbols) * 1e9});
  }

  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "{\n  \"dispatched\": \"" << kernel_dispatch().name << "\",\n";
  out << "  \"threads\": " << hardware_threads() << ",\n";
  out << "  \"baseline\": \"" << rows.front().name << "\",\n";
  out << "  \"kernels\": [\n";
  const double base_u16 = rows.front().u16_ns_per_cell;
  const double base_u32 = rows.front().u32_ns_per_cell;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"u16_ns_per_cell\": "
        << r.u16_ns_per_cell << ", \"u32_ns_per_cell\": " << r.u32_ns_per_cell
        << ", \"u16_speedup_vs_baseline\": " << base_u16 / r.u16_ns_per_cell
        << ", \"u32_speedup_vs_baseline\": " << base_u32 / r.u32_ns_per_cell
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"batch\": {\"pairs\": " << kPairs << ", \"pair_length\": " << kLen
      << ", \"per_call_pairs_per_s\": " << kPairs / per_call_s
      << ", \"batched_pairs_per_s\": " << kPairs / batched_s
      << ", \"batched_speedup\": " << per_call_s / batched_s << "},\n";
  out << "  \"sweep\": {\"grid\": \"" << kGrid << "x" << kGrid
      << "\", \"unbanded_ns_per_cell\": " << unbanded_ns
      << ", \"antidiag_ns_per_cell\": " << banded_ns << "},\n";
  out << "  \"digest\": [\n";
  for (std::size_t i = 0; i < digests.size(); ++i) {
    const DigestRow& d = digests[i];
    out << "    {\"symbols\": " << d.symbols << ", \"ns_per_symbol\": " << d.ns_per_symbol
        << ", \"gb_per_s\": " << sizeof(Symbol) / d.ns_per_symbol << "}"
        << (i + 1 < digests.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::printf("comb-kernel report written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_kernel_report("results/bench_micro.json");
  return 0;
}
