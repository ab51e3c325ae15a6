// Versioned incremental corpus: upsert_document via cached chunk braids.
//
// A CorpusManager owns a mutable set of named documents and keeps the pair
// kernel of every document pair published in the engine's KernelStore. The
// trick that makes edits cheap is the composition theorem (Thm 3.4): each
// document is split into fixed-size chunks, and the kernel of (doc, other)
// is the steady-ant product of the per-chunk *strip braids*
// P_{chunk_i, other}. Every strip braid -- and every composed *prefix
// braid* P_{chunk_1..i, other} at a chunk boundary -- is content-addressed
// in the store under the ordinary make_pair_key of its input bytes, so:
//
//   * an append finds the old whole-document kernel as the longest cached
//     prefix braid and pays only O(chunk * n) combing for the new chunks
//     plus O((m+n) log(m+n)) steady-ant multiplications, not O(mn);
//   * an in-place edit re-combs only the dirty chunks (the clean ones hit
//     the store by content) and recomposes from the last clean boundary;
//   * a crash mid-upsert is harmless on the kernel side -- store writes are
//     additive and content-addressed, an interrupted run leaves orphans,
//     never torn state.
//
// Dirty-chunk computes go through the engine's per-pair scheduler
// (entry_async), so concurrent upserts coalesce, run one pair per worker,
// and hit the same bounded-queue backpressure (EngineOverloaded) as
// queries -- the frontend's admission control covers upserts for free.
//
// Publish protocol (crash consistency; see DESIGN.md §14): kernels land in
// the store first, then the new document bytes land via temp-file + rename,
// and finally the whole index.tsv -- generation header, per-document
// version manifest, versioned pair entries -- is republished atomically via
// temp + rename. The rename is the commit point: a reader (or a restarted
// manager) sees the previous generation or the new one, entire, never a
// blend. In-memory state is mutated only after the commit succeeds.
//
// Old-version pair kernels are never touched: content addressing means the
// new version keys simply miss the LRU and the store, so stale entries age
// out of the cache naturally and queries for the new bytes rebuild (or
// reuse) lazily.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/kernel.hpp"
#include "engine/corpus.hpp"
#include "engine/engine.hpp"

namespace semilocal {

struct CorpusManagerOptions {
  /// Corpus root: `index.tsv` plus `docs/<id>.v<version>` live here. Empty
  /// disables durability (in-memory corpus; kernels may still persist via
  /// the engine's store).
  std::string dir;
  /// Strip-braid chunk width in symbols. Small chunks localize edits but
  /// cost more compositions; the default suits multi-kilobyte documents.
  Index chunk = 1024;
  /// workers = 0 engines: run queued strip computes on this thread before
  /// waiting on them (deterministic tests, stdio serving).
  bool drain_inline = false;
  /// Steady-ant configuration for the composition products.
  SteadyAntOptions ant = {.precalc = true, .preallocate = true};
  /// Filesystem for document bytes and the index. nullptr = real_env().
  Env* env = nullptr;
};

/// What one upsert (or remove) did, echoed to clients as the response text.
struct UpsertReport {
  std::string id;
  Index version = 0;            ///< document version after the call
  std::uint64_t generation = 0; ///< corpus generation after the call
  bool changed = false;         ///< false = same bytes, nothing republished
  std::size_t pairs = 0;            ///< pair kernels (re)published
  std::size_t chunks_computed = 0;  ///< dirty strip braids combed
  std::size_t chunks_reused = 0;    ///< strip braids served by content hash
  std::size_t prefix_reused = 0;    ///< chunks skipped via a cached prefix braid
  std::size_t composes = 0;         ///< steady-ant multiplications run

  /// Compact JSON rendering (one flat object).
  [[nodiscard]] std::string json() const;
};

/// Thrown when an upsert computed its kernels but could not commit (document
/// write or index publish failed). The corpus -- in memory and on disk --
/// still serves the previous generation.
class CorpusPublishError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CorpusManager {
 public:
  /// Binds to `engine` (whose store receives every strip/prefix/pair
  /// kernel). If `options.dir` holds an index.tsv, the corpus -- documents,
  /// versions, generation -- is loaded from it.
  CorpusManager(ComparisonEngine& engine, CorpusManagerOptions options);

  /// Inserts or updates a document. Identical bytes are a no-op (the
  /// current version is echoed; nothing is republished), which makes
  /// retried/failed-over upserts idempotent. Otherwise rebuilds the pair
  /// kernel against every other document from cached chunk braids, bumps
  /// the document version and corpus generation, and publishes atomically.
  /// Throws std::invalid_argument on a malformed id, EngineOverloaded under
  /// scheduler backpressure, CorpusPublishError when the commit fails.
  UpsertReport upsert_document(const std::string& id, Sequence bytes);

  /// Removes a document (its pairs leave the index; store files stay, they
  /// are content-addressed garbage). Removing an absent id is a no-op.
  UpsertReport remove_document(const std::string& id);

  [[nodiscard]] std::uint64_t generation() const;
  [[nodiscard]] std::size_t documents() const;
  /// Current version of `id`, or nullopt if absent.
  [[nodiscard]] std::optional<Index> version(const std::string& id) const;
  /// Current bytes of `id`, or nullopt if absent.
  [[nodiscard]] std::optional<Sequence> document(const std::string& id) const;
  /// The published pair entries (what index.tsv holds), id-sorted.
  [[nodiscard]] std::vector<CorpusIndexEntry> index_entries() const;

 private:
  struct Doc {
    Index version = 0;
    Sequence bytes;
  };

  /// Rebuilds P_{a, b} where the document on `chunked_side_a ? a : b` is
  /// chunked and composed from cached braids. Publishes prefix braids at
  /// every composed boundary plus the final pair kernel into the store.
  void rebuild_pair(const Sequence& a, const Sequence& b, bool chunked_side_a,
                    UpsertReport& report);

  /// The id-sorted pair entries for the current (locked) document map.
  [[nodiscard]] std::vector<CorpusIndexEntry> entries_locked() const;

  /// Publishes generation + #doc manifest + pair entries of the current
  /// (locked) document map as index.tsv (publish_corpus_index: temp +
  /// rename). No-op without a corpus dir. Throws CorpusPublishError on
  /// failure.
  void publish_locked(std::uint64_t generation);

  [[nodiscard]] std::string index_path() const;
  [[nodiscard]] std::string doc_path(const std::string& id, Index version) const;
  void load_from_dir();

  ComparisonEngine& engine_;
  CorpusManagerOptions options_;
  Env* env_;
  mutable std::mutex mutex_;
  std::map<std::string, Doc> docs_;  // ordered: pair order is id order
  std::uint64_t generation_ = 0;
  AntWorkspace workspace_;
};

}  // namespace semilocal
