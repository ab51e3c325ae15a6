// Thread-safe queries over shared cached kernels.
//
// Three interchangeable answer paths, all safe for any number of threads on
// one shared kernel:
//
//   * Indexed (the warm serving path): O(log n) dominance counts through the
//     entry's shared immutable QueryIndex, built exactly once -- by the
//     entry's first window query, via std::call_once -- and then read
//     lock-free. A kLcs on a decoded entry returns the global score the
//     entry cached at construction and never touches (or builds) the index.
//   * Compressed (compressed-resident entries): the dominance count streamed
//     block-by-block off the entry's CompressedKernel -- O(m + n) work like
//     the scan but touching only compressed bytes plus one block's scratch,
//     so cold-tail entries answer without ever being decoded in full.
//   * Scan (the fallback): SemiLocalKernel's own member queries, the
//     stateless O(m + n) dominance scan on the immutable permutation -- no
//     hidden state, no synchronization, and for a one-shot query cheaper
//     than building any structure.
//
// answer_query() routes between them and feeds the queries_indexed /
// queries_scanned / queries_compressed counters the stats endpoint surfaces.
// All coordinate formulas come from core/query_formulas.hpp, the same header
// SemiLocalKernel itself uses (Definition 3.2 / 3.3 of the paper).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/kernel.hpp"
#include "core/query_formulas.hpp"
#include "engine/lru_cache.hpp"
#include "util/types.hpp"

namespace semilocal {

/// The query kinds the serving path answers off a cached kernel.
enum class QueryKind : std::uint8_t {
  kLcs = 0,              ///< LCS(a, b); window arguments ignored
  kStringSubstring = 1,  ///< LCS(a, b[x, y))
  kSubstringString = 2,  ///< LCS(a[x, y), b)
};

/// The counters surfaced through the JSON stats endpoint.
struct QueryCounters {
  std::atomic<std::uint64_t> indexed{0};       ///< queries answered via QueryIndex
  std::atomic<std::uint64_t> scanned{0};       ///< queries answered via the O(m+n) scan
  std::atomic<std::uint64_t> index_builds{0};  ///< QueryIndex constructions
  std::atomic<std::uint64_t> compressed{0};    ///< queries streamed off v3 blocks
  std::atomic<std::uint64_t> blocks_decoded{0};  ///< v3 blocks decoded by queries
  std::atomic<std::uint64_t> plot_tiles{0};      ///< alignment-plot tiles emitted
  std::atomic<std::uint64_t> plot_windows{0};    ///< plot cells answered
  std::atomic<std::uint64_t> plot_reused_descents{0};  ///< descents the seam walk saved
};

/// Plain-value snapshot of QueryCounters for EngineStats.
struct QueryStats {
  std::uint64_t indexed = 0;
  std::uint64_t scanned = 0;
  std::uint64_t index_builds = 0;
  std::uint64_t compressed = 0;
  std::uint64_t blocks_decoded = 0;
  std::uint64_t plot_tiles = 0;
  std::uint64_t plot_windows = 0;
  std::uint64_t plot_reused_descents = 0;
};

/// One window of a batched query: a query kind plus its two window
/// coordinates (ignored for kLcs). This is the unit the batched protocol op
/// carries k of per frame.
struct WindowQuery {
  QueryKind kind = QueryKind::kLcs;
  Index x = 0;
  Index y = 0;
};

/// True when answering a window query (any op but kLcs) off `entry` would
/// first build its QueryIndex: a decoded entry, indexing on, index not yet
/// built. kLcs answers from the entry's cached score and a compressed entry
/// streams blocks, so neither ever builds. An event loop uses this to hand
/// the build to a worker thread instead of running it inline.
inline bool query_builds_index(const CachedKernel& entry, bool use_index,
                               bool window_query) {
  return use_index && window_query && !entry.is_compressed() &&
         entry.index_if_built() == nullptr;
}

/// Answers one query off a shared cached entry. With `use_index` the entry's
/// QueryIndex answers in O(log n), building it first if this is its very
/// first use; otherwise the O(m + n) scan answers statelessly. `counters`
/// (optional) receives the routing decision. Throws std::out_of_range on a
/// bad window.
Index answer_query(const CachedKernel& entry, QueryKind kind, Index x, Index y,
                   bool use_index, QueryCounters* counters = nullptr);

/// Answers `count` windows over one shared entry into `out`. The indexed
/// path lowers all windows up front and runs the QueryIndex's interleaved
/// batch descent (several wavelet descents in flight), which is what makes
/// the batched protocol op faster than `count` single calls; the scan path
/// degenerates to a loop. Throws std::out_of_range on any bad window.
void answer_query_batch(const CachedKernel& entry, const WindowQuery* windows,
                        Index* out, std::size_t count, bool use_index,
                        QueryCounters* counters = nullptr);

/// One streamed chunk of an alignment plot: a (rows x cols) sub-rectangle of
/// the grid, origin (row0, col0) in *grid* coordinates, cells row-major
/// little-endian (u16 raw scores for quant 16, u8 scaled to [0, 255] for
/// quant 8). `last` marks the final frame of the plot's response stream.
struct PlotTile {
  Index row0 = 0;
  Index col0 = 0;
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::uint8_t quant = 16;
  bool last = false;
  std::string cells;

  friend bool operator==(const PlotTile&, const PlotTile&) = default;
};

/// Answers one plot row against a strip entry (kernel of (a-window, b),
/// m == window): out[v] = LCS(strip, b[col0 + v*step, +window)) for v in
/// [0, count). With `use_planner` (and an indexable entry, and a stride the
/// heuristic likes) the whole row costs one anchoring wavelet descent plus a
/// seam walk; otherwise every window lowers independently through
/// answer_query_batch -- the ablation the bench gates against. Compressed
/// entries are decoded/indexed on the planner path (a plot touches every
/// block anyway). Bumps plot_windows / plot_reused_descents.
void answer_plot_row(const CachedKernel& entry, Index col0, Index step, Index window,
                     std::size_t count, Index* out, bool use_planner, bool use_index,
                     QueryCounters* counters = nullptr);

}  // namespace semilocal
