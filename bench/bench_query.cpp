// Scan-vs-index crossover for semi-local queries off one cached kernel.
//
// The O(m + n) dominance scan answers a one-shot query with zero setup; the
// flattened QueryIndex costs one build and then answers in O(log n). This
// benchmark measures both across pair lengths and reports the crossover:
// the number of queries per kernel after which building the index is the
// cheaper total. Written to results/bench_query.json (plus the usual CSV)
// so serving configurations can pick a policy from data.
//
// SEMILOCAL_BENCH_SCALE scales the query count, not the lengths -- the
// length sweep IS the experiment.
#include "common.hpp"

#include <filesystem>
#include <fstream>

#include "core/api.hpp"
#include "core/query_index.hpp"
#include "engine/query.hpp"
#include "util/random.hpp"

using namespace semilocal;
using namespace semilocal::bench;

namespace {

struct LengthResult {
  Index length = 0;
  Index order = 0;
  double build_s = 0.0;
  double scan_queries_per_s = 0.0;
  double index_queries_per_s = 0.0;
  double batch_queries_per_s = 0.0;  // interleaved answer_many descent
  std::size_t index_bytes = 0;

  /// Queries after which build + indexed answering beats pure scanning:
  /// build_s + q / index_qps < q / scan_qps  =>  q > build_s / (1/scan - 1/index).
  [[nodiscard]] double crossover_queries() const {
    const double per_scan = 1.0 / scan_queries_per_s;
    const double per_index = 1.0 / index_queries_per_s;
    if (per_scan <= per_index) return -1.0;  // scan never loses (tiny kernels)
    return build_s / (per_scan - per_index);
  }
};

LengthResult run_length(Index length, Index queries) {
  LengthResult result;
  result.length = length;

  Rng rng(static_cast<std::uint64_t>(length));
  const auto a = uniform_sequence(length, 4, 11 + static_cast<std::uint64_t>(length));
  const auto b = uniform_sequence(length, 4, 12 + static_cast<std::uint64_t>(length));
  const SemiLocalKernel kernel = semi_local_kernel(a, b);
  result.order = kernel.order();

  // Mixed window workload, fixed up front so both paths answer identically.
  const auto m = static_cast<Index>(a.size());
  const auto n = static_cast<Index>(b.size());
  struct Win {
    QueryKind kind;
    Index x, y;
  };
  std::vector<Win> windows;
  windows.reserve(static_cast<std::size_t>(queries));
  for (Index q = 0; q < queries; ++q) {
    switch (rng.uniform(0, 2)) {
      case 0:
        windows.push_back({QueryKind::kLcs, 0, 0});
        break;
      case 1: {
        const Index j0 = rng.uniform(0, n);
        windows.push_back({QueryKind::kStringSubstring, j0, rng.uniform(j0, n)});
        break;
      }
      default: {
        const Index i0 = rng.uniform(0, m);
        windows.push_back({QueryKind::kSubstringString, i0, rng.uniform(i0, m)});
        break;
      }
    }
  }

  const auto scan_all = [&] {
    Index sink = 0;
    for (const Win& w : windows) {
      switch (w.kind) {
        case QueryKind::kLcs:
          sink += kernel.lcs();
          break;
        case QueryKind::kStringSubstring:
          sink += kernel.string_substring(w.x, w.y);
          break;
        case QueryKind::kSubstringString:
          sink += kernel.substring_string(w.x, w.y);
          break;
      }
    }
    if (sink < 0) std::abort();
  };
  result.scan_queries_per_s =
      static_cast<double>(queries) / median_seconds(scan_all);

  // Sub-millisecond builds: a median over many runs keeps one scheduling
  // hiccup on a shared machine out of the ledger.
  result.build_s = median_seconds([&] { (void)QueryIndex(kernel); }, 21);
  const QueryIndex index(kernel);
  result.index_bytes = index.resident_bytes();
  const auto index_all = [&] {
    Index sink = 0;
    for (const Win& w : windows) {
      switch (w.kind) {
        case QueryKind::kLcs:
          sink += index.lcs();
          break;
        case QueryKind::kStringSubstring:
          sink += index.string_substring(w.x, w.y);
          break;
        case QueryKind::kSubstringString:
          sink += index.substring_string(w.x, w.y);
          break;
      }
    }
    if (sink < 0) std::abort();
  };
  result.index_queries_per_s =
      static_cast<double>(queries) / median_seconds(index_all);

  // The batched-protocol path: lower every window up front, then run the
  // interleaved multi-lane descent (QueryIndex::answer_many).
  std::vector<HQuery> lowered;
  lowered.reserve(windows.size());
  for (const Win& w : windows) {
    switch (w.kind) {
      case QueryKind::kLcs:
        lowered.push_back(lcs_query(m, n));
        break;
      case QueryKind::kStringSubstring:
        lowered.push_back(string_substring_query(m, n, w.x, w.y));
        break;
      case QueryKind::kSubstringString:
        lowered.push_back(substring_string_query(m, n, w.x, w.y));
        break;
    }
  }
  std::vector<Index> answers(lowered.size());
  const auto batch_all = [&] {
    index.answer_many(lowered.data(), answers.data(), lowered.size());
    if (answers[0] < 0) std::abort();
  };
  result.batch_queries_per_s =
      static_cast<double>(queries) / median_seconds(batch_all);
  return result;
}

// The alignment-plot planner primitive: one grid row of width-`window`
// diagonal queries against a strip kernel, at each stride. The naive lowering
// is the batched-protocol path (answer_many over per-window HQueries); the
// planner is one anchor descent plus the seam walk (strided_diagonal_sigma).
// Sweeping the stride exposes the crossover that strided_walk_profitable
// encodes: the walk pays ~2*stride contiguous probes per window, the descent
// ~2*log2(order) dependent ones, so small strides favor the walk.
struct StrideResult {
  Index stride = 0;
  Index windows = 0;
  double planner_windows_per_s = 0.0;
  double naive_windows_per_s = 0.0;
  bool profitable = false;  // what the engine's gate would pick
  Index mismatches = 0;     // seam walk vs descent disagreement (must be 0)
};

std::vector<StrideResult> run_stride_sweep(Index length, Index window) {
  const auto a = uniform_sequence(window, 4, 21);
  const auto b = uniform_sequence(length, 4, 22);
  const SemiLocalKernel kernel = semi_local_kernel(a, b);
  const QueryIndex index(kernel);
  const Permutation& perm = kernel.permutation();
  const Index n = static_cast<Index>(b.size());

  std::vector<StrideResult> results;
  for (const Index stride : {Index{1}, Index{4}, Index{16}, Index{64}}) {
    StrideResult r;
    r.stride = stride;
    const auto count = static_cast<std::size_t>((n - window) / stride + 1);
    r.windows = static_cast<Index>(count);
    r.profitable = strided_walk_profitable(kernel.order(), stride);

    std::vector<HQuery> lowered;
    lowered.reserve(count);
    for (std::size_t t = 0; t < count; ++t) {
      const Index j0 = static_cast<Index>(t) * stride;
      lowered.push_back(string_substring_query(window, n, j0, j0 + window));
    }
    std::vector<Index> naive(count);
    const auto naive_all = [&] {
      index.answer_many(lowered.data(), naive.data(), count);
      if (naive[0] < 0) std::abort();
    };
    r.naive_windows_per_s = static_cast<double>(count) / median_seconds(naive_all);

    std::vector<Index> sigmas(count);
    const auto planner_all = [&] {
      strided_diagonal_sigma(index, perm, window, stride, count, sigmas.data());
      if (sigmas[0] < 0) std::abort();
    };
    r.planner_windows_per_s =
        static_cast<double>(count) / median_seconds(planner_all);

    for (std::size_t t = 0; t < count; ++t) {
      if (window - sigmas[t] != naive[t]) ++r.mismatches;
    }
    results.push_back(r);
  }
  return results;
}

void write_json(const std::string& path, const std::vector<LengthResult>& results,
                const std::vector<StrideResult>& strides) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "{\n  \"lengths\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LengthResult& r = results[i];
    out << "    {\"pair_length\": " << r.length << ", \"order\": " << r.order
        << ", \"build_s\": " << r.build_s
        << ", \"scan_queries_per_s\": " << r.scan_queries_per_s
        << ", \"index_queries_per_s\": " << r.index_queries_per_s
        << ", \"batch_queries_per_s\": " << r.batch_queries_per_s
        << ", \"speedup\": " << r.index_queries_per_s / r.scan_queries_per_s
        << ", \"batch_speedup\": " << r.batch_queries_per_s / r.scan_queries_per_s
        << ", \"crossover_queries\": " << r.crossover_queries()
        << ", \"index_bytes\": " << r.index_bytes << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"plot_strides\": [\n";
  for (std::size_t i = 0; i < strides.size(); ++i) {
    const StrideResult& r = strides[i];
    out << "    {\"stride\": " << r.stride << ", \"windows\": " << r.windows
        << ", \"planner_windows_per_s\": " << r.planner_windows_per_s
        << ", \"naive_windows_per_s\": " << r.naive_windows_per_s
        << ", \"speedup\": " << r.planner_windows_per_s / r.naive_windows_per_s
        << ", \"profitable\": " << (r.profitable ? "true" : "false")
        << ", \"mismatches\": " << r.mismatches << "}"
        << (i + 1 < strides.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "query report written to " << path << "\n";
}

}  // namespace

int main() {
  const Index queries = scaled(20000);
  std::vector<LengthResult> results;
  for (const Index length : {250, 500, 1000, 2000, 4000, 8000, 16000}) {
    results.push_back(run_length(length, queries));
  }

  Table table({"pair_length", "build_s", "scan_q_per_s", "index_q_per_s",
               "batch_q_per_s", "speedup", "batch_speedup", "crossover_queries",
               "index_bytes"});
  for (const LengthResult& r : results) {
    table.row()
        .cell(static_cast<long long>(r.length))
        .cell(r.build_s, 6)
        .cell(r.scan_queries_per_s, 0)
        .cell(r.index_queries_per_s, 0)
        .cell(r.batch_queries_per_s, 0)
        .cell(r.index_queries_per_s / r.scan_queries_per_s, 2)
        .cell(r.batch_queries_per_s / r.scan_queries_per_s, 2)
        .cell(r.crossover_queries(), 1)
        .cell(static_cast<long long>(r.index_bytes));
  }
  table.print(std::cout, "scan vs QueryIndex crossover per pair length");

  const std::vector<StrideResult> strides = run_stride_sweep(4000, 64);
  Table stride_table({"stride", "windows", "planner_w_per_s", "naive_w_per_s",
                      "speedup", "profitable", "mismatches"});
  for (const StrideResult& r : strides) {
    stride_table.row()
        .cell(static_cast<long long>(r.stride))
        .cell(static_cast<long long>(r.windows))
        .cell(r.planner_windows_per_s, 0)
        .cell(r.naive_windows_per_s, 0)
        .cell(r.planner_windows_per_s / r.naive_windows_per_s, 2)
        .cell(std::string(r.profitable ? "yes" : "no"))
        .cell(static_cast<long long>(r.mismatches));
  }
  stride_table.print(std::cout,
                     "plot-row seam walk vs batched descents per stride "
                     "(window 64, pair 4000)");

  write_json("results/bench_query.json", results, strides);
  return 0;
}
