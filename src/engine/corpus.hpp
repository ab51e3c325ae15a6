// Corpus precompute and the `index.tsv` codec.
//
// Precompute is the canonical precompute-then-query workload (Krusche-Tiskin
// alignment plots): every record pair of a corpus gets its semi-local kernel
// computed once through a ComparisonEngine, persisted content-addressed in
// the engine's KernelStore, and listed in a human-readable index
// (`index.tsv`) that maps record-id pairs back to store keys so query tools
// can find kernels by name without rehashing sequences. Residues are packed
// with pack_dna before hashing/combing, matching what a DNA-mode server does
// to incoming requests -- the same pair therefore lands on the same store
// key whether it arrives via CLI precompute or the wire.
//
// This file owns the `index.tsv` format, for plain precompute and for the
// versioned corpora of CorpusManager alike (tab-separated):
//
//   #generation  <g>                    corpus generation (0: precompute)
//   #doc  <id>  <version>  <length>     one per document (versioned only)
//   #id_a  id_b  m  n  key  ver_a  ver_b
//   <id_a>  <id_b>  <m>  <n>  <key>  <ver_a>  <ver_b>    one per pair
//
// `key` is the pair's 32-digit lowercase PairKey::hex(), which is also its
// store file name. Pre-versioning files carry five pair columns and no
// generation; they still read (versions and generation 0).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/env.hpp"
#include "util/fasta.hpp"

namespace semilocal {

/// One pair row of index.tsv.
struct CorpusIndexEntry {
  std::string id_a;
  std::string id_b;
  Index m = 0;
  Index n = 0;
  std::string key_hex;
  /// Document versions behind this pair kernel (0 for unversioned corpora
  /// written by plain precompute; bumped per upsert by CorpusManager).
  Index ver_a = 0;
  Index ver_b = 0;
};

/// One `#doc` manifest line: a live document of a versioned corpus, whose
/// bytes CorpusManager keeps in `docs/<id>.v<version>`.
struct CorpusDocEntry {
  std::string id;
  Index version = 0;
  Index length = 0;  ///< symbols
};

/// Everything one index.tsv holds.
struct CorpusIndex {
  std::uint64_t generation = 0;
  std::vector<CorpusDocEntry> docs = {};  ///< empty for plain precompute
  std::vector<CorpusIndexEntry> pairs = {};
};

/// Reads an index. All I/O goes through `env` (nullptr = real_env()), so
/// fault-injection runs cover the index file exactly like the kernel files.
/// Throws std::runtime_error naming the offending line on malformed input:
/// a bad `#generation` value, a `#doc` line with an invalid id or a negative
/// or non-numeric count, a pair row with other than five or seven columns,
/// a key that is not 32 lowercase hex digits, or a negative `m`, `n` or
/// version.
CorpusIndex read_corpus_index(const std::string& path, Env* env = nullptr);

/// Atomic index publish: the serialized index lands at `path + ".tmp"` first
/// and is renamed into place, so a crash or write fault mid-publish leaves
/// the previous index intact and no temp file behind -- readers see the old
/// generation or the new one, whole, never a blend. This is the commit point
/// of a versioned upsert and the last step of a precompute run. Throws
/// std::runtime_error on failure.
void publish_corpus_index(const std::string& path, const CorpusIndex& index,
                          Env* env = nullptr);

/// True iff `id` is usable as a document id: 1..128 printable ASCII chars,
/// no whitespace, no path separators (ids appear in index.tsv columns and
/// document filenames).
bool valid_document_id(const std::string& id);

struct CorpusBuildReport {
  std::vector<CorpusIndexEntry> entries;  ///< one per record pair (i < j)
  std::size_t computed = 0;               ///< kernels computed this run
  std::size_t reused = 0;                 ///< pairs already on disk (skipped)
  /// Kernels computed but not persisted (store write failures during this
  /// run; they still served from the cache and a re-run recomputes them).
  std::size_t persist_failures = 0;
};

/// Computes and persists the kernels of all record pairs (i < j) through
/// `engine`: pairs whose kernel file already exists in the engine's store
/// are skipped, so interrupted runs resume; the rest go to the engine's
/// scheduler (one pair per worker) with a bounded lookahead. Queued pairs
/// are drained on the calling thread before every wait, so a workers = 0
/// engine runs the whole corpus inline. Store write failures never abort the
/// run: they degrade to `persist_failures` in the report (after one retry
/// pass at the end), matching the serving path's degradation policy. The
/// caller publishes `entries` (publish_corpus_index).
CorpusBuildReport precompute_corpus(const std::vector<FastaRecord>& records,
                                    ComparisonEngine& engine);

}  // namespace semilocal
