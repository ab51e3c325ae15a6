// Versioned incremental corpus: differential oracle tests.
//
// The load-bearing suite is EditScriptDifferentialOracle: 200+ seeded random
// edit steps (append / in-place edit / truncate / delete / re-add) against a
// CorpusManager, where after EVERY upsert the published pair kernel of every
// document pair is bit-compared -- the full permutation, not a summary
// statistic -- against a fresh semi_local_kernel computed from the shadow
// copy of the documents. Any divergence in the chunk-braid composition path
// (stale prefix reuse, wrong compose order, off-by-one chunk boundaries)
// fails here deterministically.
//
// The suite also pins IncrementalKernel::append_a/append_b against fresh
// kernels across uneven chunk sizes (1, prime, power-of-two), exercises the
// generation/version bookkeeping (idempotent re-sends, restart loads, index
// back-compat), and hammers concurrent upserts + reads for TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/incremental.hpp"
#include "engine/corpus.hpp"
#include "engine/corpus_version.hpp"
#include "engine/engine.hpp"
#include "engine/key.hpp"
#include "oracles.hpp"
#include "scratch.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

using testing::ScratchDir;

/// Deterministic single-thread engine: strip computes queue in the scheduler
/// and run on drain() (the corpus manager drains via drain_inline).
EngineOptions test_engine_options(const std::string& store_dir) {
  EngineOptions options;
  options.store.dir = store_dir;
  options.scheduler.workers = 0;
  return options;
}

CorpusManagerOptions test_corpus_options(const std::string& dir, Index chunk) {
  CorpusManagerOptions options;
  options.dir = dir;
  options.chunk = chunk;
  options.drain_inline = true;
  return options;
}

/// Bit-exact kernel equality: order, m/n split, and every permutation entry.
void expect_kernel_equal(const SemiLocalKernel& got, const SemiLocalKernel& want,
                         const std::string& context) {
  ASSERT_EQ(got.m(), want.m()) << context;
  ASSERT_EQ(got.n(), want.n()) << context;
  ASSERT_EQ(got.permutation().size(), want.permutation().size()) << context;
  for (Index row = 0; row < got.permutation().size(); ++row) {
    ASSERT_EQ(got.permutation().col_of(row), want.permutation().col_of(row))
        << context << " (row " << row << ")";
  }
}

/// The published pair kernel for (a, b) must exist in the store under the
/// content key and bit-match a fresh full recompute.
void expect_published_pair_matches_oracle(ComparisonEngine& engine,
                                          const Sequence& a, const Sequence& b,
                                          const std::string& context) {
  const CachedKernelPtr cached = engine.store().find(make_pair_key(a, b));
  ASSERT_NE(cached, nullptr) << context << ": pair kernel missing from store";
  const SemiLocalKernel oracle = semi_local_kernel(a, b);
  expect_kernel_equal(cached->kernel(), oracle, context);
}

// ---------------------------------------------------------------------------
// The differential oracle sweep.

TEST(IncrementalCorpus, EditScriptDifferentialOracle) {
  constexpr int kSeeds = 12;
  constexpr int kEditsPerSeed = 18;  // 12 * 18 = 216 seeded edit scripts
  constexpr Index kChunk = 64;
  const std::vector<std::string> ids = {"alpha", "beta", "gamma"};

  int scripts = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const ScratchDir scratch("oracle" + std::to_string(seed));
    ComparisonEngine engine(test_engine_options(scratch.file("store")));
    CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), kChunk));

    // Shadow truth: id -> bytes, mutated in lockstep with the manager.
    std::vector<std::pair<std::string, Sequence>> shadow;
    Rng rng(0x1CC0 + static_cast<std::uint64_t>(seed));
    std::uint64_t last_generation = corpus.generation();

    const auto find_shadow = [&](const std::string& id) {
      return std::find_if(shadow.begin(), shadow.end(),
                          [&](const auto& doc) { return doc.first == id; });
    };
    const auto fresh_bytes = [&](Index length) {
      Sequence bytes;
      bytes.reserve(static_cast<std::size_t>(length));
      for (Index i = 0; i < length; ++i) {
        bytes.push_back(static_cast<Symbol>(rng.uniform(0, 3)));
      }
      return bytes;
    };

    for (int edit = 0; edit < kEditsPerSeed; ++edit) {
      const std::string& id = ids[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(ids.size()) - 1))];
      const auto it = find_shadow(id);
      const int op = static_cast<int>(rng.uniform(0, 4));

      if (op == 3 && it != shadow.end()) {
        // Delete: pairs naming the id leave the index.
        corpus.remove_document(id);
        shadow.erase(it);
        EXPECT_FALSE(corpus.version(id).has_value());
      } else {
        Sequence bytes;
        if (it == shadow.end()) {
          // (Re-)add: a fresh document, deliberately not chunk-aligned.
          bytes = fresh_bytes(rng.uniform(1, 400));
        } else if (op == 0) {
          // Append: the sublinear fast path.
          bytes = it->second;
          const Sequence tail = fresh_bytes(rng.uniform(1, 150));
          bytes.insert(bytes.end(), tail.begin(), tail.end());
        } else if (op == 1) {
          // In-place edit: flip a handful of symbols somewhere.
          bytes = it->second;
          const Index edits = rng.uniform(1, 5);
          for (Index k = 0; k < edits; ++k) {
            const auto pos = static_cast<std::size_t>(
                rng.uniform(0, static_cast<std::int64_t>(bytes.size()) - 1));
            bytes[pos] = static_cast<Symbol>(rng.uniform(0, 3));
          }
        } else {
          // Truncate (op == 2, or a delete rolled for an absent id).
          bytes = it->second;
          const auto keep = static_cast<std::size_t>(
              rng.uniform(1, static_cast<std::int64_t>(bytes.size())));
          bytes.resize(keep);
        }

        const bool expect_change = it == shadow.end() || it->second != bytes;
        const UpsertReport report = corpus.upsert_document(id, bytes);
        EXPECT_EQ(report.changed, expect_change);
        if (it == shadow.end()) {
          shadow.emplace_back(id, std::move(bytes));
        } else {
          it->second = std::move(bytes);
        }
        if (report.changed) {
          EXPECT_GT(report.generation, last_generation);
          last_generation = report.generation;
        }
      }

      // Differential oracle: every live pair, bit-compared against a fresh
      // full recompute of the shadow bytes.
      std::sort(shadow.begin(), shadow.end());
      for (std::size_t i = 0; i < shadow.size(); ++i) {
        for (std::size_t j = i + 1; j < shadow.size(); ++j) {
          expect_published_pair_matches_oracle(
              engine, shadow[i].second, shadow[j].second,
              "seed " + std::to_string(seed) + " edit " + std::to_string(edit) +
                  " pair " + shadow[i].first + "/" + shadow[j].first);
        }
      }
      EXPECT_EQ(corpus.index_entries().size(),
                shadow.size() < 2 ? 0 : shadow.size() * (shadow.size() - 1) / 2);
      ++scripts;
    }
  }
  EXPECT_GE(scripts, 200);
}

// ---------------------------------------------------------------------------
// Chunk-braid reuse accounting.

TEST(IncrementalCorpus, AppendReusesWholeDocumentPrefix) {
  const ScratchDir scratch;
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));

  const Sequence other = testing::random_string(500, 4, 11);
  Sequence doc = testing::random_string(512, 4, 12);  // exactly 8 chunks
  corpus.upsert_document("other", other);
  corpus.upsert_document("doc", doc);

  // Append one chunk: the old whole-document kernel is itself the cached
  // 8-chunk prefix braid, so only the new chunk is combed and one compose
  // stitches it on. Nothing from the old document is recomputed.
  const Sequence tail = testing::random_string(64, 4, 13);
  doc.insert(doc.end(), tail.begin(), tail.end());
  const UpsertReport report = corpus.upsert_document("doc", doc);
  EXPECT_TRUE(report.changed);
  EXPECT_EQ(report.pairs, 1u);
  EXPECT_EQ(report.prefix_reused, 8u);
  EXPECT_EQ(report.chunks_computed, 1u);
  EXPECT_EQ(report.composes, 1u);
  expect_published_pair_matches_oracle(engine, doc, other, "append");
}

TEST(IncrementalCorpus, MidEditRecombsOnlyDirtyChunks) {
  const ScratchDir scratch;
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));

  const Sequence other = testing::random_string(300, 4, 21);
  Sequence doc = testing::random_string(640, 4, 22);  // 10 chunks
  corpus.upsert_document("other", other);
  corpus.upsert_document("doc", doc);

  // Dirty exactly chunk 4: prefix braids up to boundary 4 stay valid, the
  // clean chunks after it are served by content hash, only one strip combs.
  doc[4 * 64 + 7] = (doc[4 * 64 + 7] + 1) % 4;
  const UpsertReport report = corpus.upsert_document("doc", doc);
  EXPECT_TRUE(report.changed);
  EXPECT_EQ(report.prefix_reused, 4u);
  EXPECT_EQ(report.chunks_computed, 1u);
  EXPECT_EQ(report.chunks_reused, 5u);
  EXPECT_EQ(report.composes, 6u);
  expect_published_pair_matches_oracle(engine, doc, other, "mid-edit");
}

// ---------------------------------------------------------------------------
// Versioning and publish bookkeeping.

TEST(IncrementalCorpus, IdempotentSameBytesResend) {
  const ScratchDir scratch;
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));

  const Sequence doc = testing::random_string(200, 4, 31);
  const UpsertReport first = corpus.upsert_document("doc", doc);
  EXPECT_TRUE(first.changed);
  EXPECT_EQ(first.version, 1);

  // A failed-over client re-sending the same bytes must not burn a version
  // or a generation -- this is what makes router retries safe.
  const UpsertReport again = corpus.upsert_document("doc", doc);
  EXPECT_FALSE(again.changed);
  EXPECT_EQ(again.version, 1);
  EXPECT_EQ(again.generation, first.generation);
  EXPECT_EQ(corpus.generation(), first.generation);
}

TEST(IncrementalCorpus, RemoveThenReaddStartsAtVersionOne) {
  const ScratchDir scratch;
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));

  corpus.upsert_document("doc", testing::random_string(100, 4, 41));
  corpus.upsert_document("doc", testing::random_string(120, 4, 42));
  EXPECT_EQ(corpus.version("doc"), std::optional<Index>(2));

  const UpsertReport removed = corpus.remove_document("doc");
  EXPECT_TRUE(removed.changed);
  EXPECT_EQ(corpus.documents(), 0u);
  // Removing an absent id is a no-op, like the idempotent re-send.
  EXPECT_FALSE(corpus.remove_document("doc").changed);

  const UpsertReport readd =
      corpus.upsert_document("doc", testing::random_string(80, 4, 43));
  EXPECT_EQ(readd.version, 1);
  EXPECT_GT(readd.generation, removed.generation);
}

TEST(IncrementalCorpus, RejectsInvalidDocumentIds) {
  const ScratchDir scratch;
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));

  const Sequence doc = testing::random_string(10, 4, 51);
  // Ids land in index.tsv columns and document filenames: whitespace, path
  // separators, control bytes and over-long names are all rejected before
  // any state changes.
  const std::vector<std::string> bad_ids = {
      "",           "has space",            "tab\tsep",
      "new\nline",  "dot/dot",              "back\\slash",
      std::string(129, 'x'), std::string("nul\0byte", 8)};
  for (const std::string& bad : bad_ids) {
    EXPECT_THROW(corpus.upsert_document(bad, doc), std::invalid_argument) << bad;
  }
  EXPECT_EQ(corpus.documents(), 0u);
  EXPECT_TRUE(valid_document_id("ok-id_1.2"));
  EXPECT_FALSE(valid_document_id("no space"));
}

TEST(IncrementalCorpus, RestartLoadsPublishedGeneration) {
  const ScratchDir scratch;
  // Chunk-aligned length: the whole-document kernel is then itself a
  // boundary prefix braid, so the post-restart append below can reuse it.
  const Sequence doc_a = testing::random_string(320, 4, 61);
  const Sequence doc_b = testing::random_string(250, 4, 62);
  std::uint64_t generation = 0;

  {
    ComparisonEngine engine(test_engine_options(scratch.file("store")));
    CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));
    corpus.upsert_document("a", testing::random_string(100, 4, 60));
    corpus.upsert_document("a", doc_a);  // version 2
    corpus.upsert_document("b", doc_b);
    generation = corpus.generation();
  }

  // A fresh manager over the same directory must resume exactly where the
  // last commit left off: generation, versions, bytes, pair entries.
  ComparisonEngine engine(test_engine_options(scratch.file("store")));
  CorpusManager corpus(engine, test_corpus_options(scratch.file("corpus"), 64));
  EXPECT_EQ(corpus.generation(), generation);
  EXPECT_EQ(corpus.documents(), 2u);
  EXPECT_EQ(corpus.version("a"), std::optional<Index>(2));
  EXPECT_EQ(corpus.version("b"), std::optional<Index>(1));
  EXPECT_EQ(corpus.document("a"), std::optional<Sequence>(doc_a));
  EXPECT_EQ(corpus.document("b"), std::optional<Sequence>(doc_b));
  const auto entries = corpus.index_entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].id_a, "a");
  EXPECT_EQ(entries[0].ver_a, 2);
  EXPECT_EQ(entries[0].ver_b, 1);

  // And an idempotent re-send across the restart still recognises the bytes.
  EXPECT_FALSE(corpus.upsert_document("a", doc_a).changed);
  // The store persisted every braid: a re-upsert of grown bytes reuses the
  // whole old document as a prefix even though this is a new process.
  Sequence grown = doc_a;
  const Sequence tail = testing::random_string(64, 4, 63);
  grown.insert(grown.end(), tail.begin(), tail.end());
  const UpsertReport report = corpus.upsert_document("a", grown);
  EXPECT_TRUE(report.changed);
  EXPECT_EQ(report.chunks_computed + report.chunks_reused, 1u);
  expect_published_pair_matches_oracle(engine, grown, doc_b, "post-restart");
}

TEST(IncrementalCorpus, IndexVersionColumnsRoundTripAndBackCompat) {
  const ScratchDir scratch;
  CorpusIndex index;
  index.generation = 42;
  index.docs = {{"a", 3, 10}, {"b", 7, 20}};
  index.pairs = {{"a", "b", 10, 20, "00112233445566778899aabbccddeeff", 3, 7}};

  const std::string path = scratch.file("index.tsv");
  publish_corpus_index(path, index);
  const CorpusIndex read = read_corpus_index(path);
  EXPECT_EQ(read.generation, 42u);
  ASSERT_EQ(read.docs.size(), 2u);
  EXPECT_EQ(read.docs[1].id, "b");
  EXPECT_EQ(read.docs[1].version, 7);
  EXPECT_EQ(read.docs[1].length, 20);
  ASSERT_EQ(read.pairs.size(), 1u);
  EXPECT_EQ(read.pairs[0].ver_a, 3);
  EXPECT_EQ(read.pairs[0].ver_b, 7);
  EXPECT_EQ(read.pairs[0].key_hex, index.pairs[0].key_hex);

  // Pre-versioning five-column files (plain precompute output from older
  // releases) still read: versions and generation default to zero.
  const std::string legacy = scratch.file("legacy.tsv");
  {
    std::ofstream out(legacy);
    out << "#id_a\tid_b\tm\tn\tkey\n";
    out << "x\ty\t5\t6\tffeeddccbbaa99887766554433221100\n";
  }
  const CorpusIndex old = read_corpus_index(legacy);
  ASSERT_EQ(old.pairs.size(), 1u);
  EXPECT_EQ(old.generation, 0u);
  EXPECT_TRUE(old.docs.empty());
  EXPECT_EQ(old.pairs[0].ver_a, 0);
  EXPECT_EQ(old.pairs[0].ver_b, 0);
  EXPECT_EQ(old.pairs[0].m, 5);
  EXPECT_EQ(old.pairs[0].n, 6);
}

// The one index reader validates what it hands on: keys become store file
// names (`query --ids` joins them into a path), and counts and generations
// become sizes. Each bad line is refused with an error that names it.
TEST(CorpusIndexReader, RejectsMalformedLinesByName) {
  const ScratchDir scratch;
  const std::string key = "00112233445566778899aabbccddeeff";
  const std::vector<std::string> bad_lines = {
      "a\tb\t5\t6\t../../../etc/passwd",                 // key: a path
      "a\tb\t5\t6\t00112233445566778899AABBCCDDEEFF",     // key: uppercase
      "a\tb\t5\t6\t0011223344556677",                     // key: too short
      "a\tb\t5\t6\t00112233445566778899aabbccddeefg",     // key: not hex
      "a\tb\t-5\t6\t" + key,                              // negative m
      "a\tb\t5\t-6\t" + key,                              // negative n
      "a\tb\t5\t6\t" + key + "\t-1\t0",                 // negative version
      "a\tb\t5x\t6\t" + key,                              // m: not a number
      "a\tb\t5\t6\t" + key + "\t1",                      // six columns
      "#generation\tseven",                                 // generation: word
      "#generation\t-1",                                    // generation: negative
      "#generation\t12abc",                                 // generation: trailing junk
      "#generation\t",                                      // generation: empty
      "#doc\ta/b\t1\t4",                                   // doc id with a separator
      "#doc\ta\t-1\t4",                                    // negative doc version
  };
  for (const std::string& line : bad_lines) {
    SCOPED_TRACE(line);
    const std::string path = scratch.file("bad.tsv");
    {
      std::ofstream out(path, std::ios::trunc);
      out << "#id_a\tid_b\tm\tn\tkey\tver_a\tver_b\n" << line << "\n";
    }
    try {
      (void)read_corpus_index(path);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(":2: "), std::string::npos) << what;
      EXPECT_NE(what.find(line), std::string::npos) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// IncrementalKernel differential pins (append_a / append_b) across uneven
// chunk sizes: 1 (every boundary), a prime (never aligns with anything), and
// a power of two (the cache-friendly default shape).

void run_incremental_append_pin(bool grow_a, Index chunk_size) {
  const Sequence fixed = testing::random_string(97, 4, 71);
  const Sequence grown_total = testing::random_string(90, 4, 72);

  IncrementalKernel incremental(grow_a ? SequenceView{} : SequenceView(fixed),
                                grow_a ? SequenceView(fixed) : SequenceView{});
  Sequence grown;
  std::size_t fed = 0;
  while (fed < grown_total.size()) {
    const std::size_t take =
        std::min(static_cast<std::size_t>(chunk_size), grown_total.size() - fed);
    const SequenceView chunk(grown_total.data() + fed, take);
    grown.insert(grown.end(), chunk.begin(), chunk.end());
    fed += take;
    if (grow_a) {
      incremental.append_a(chunk);
    } else {
      incremental.append_b(chunk);
    }
    // Pin after EVERY chunk, not just at the end: a compose-order bug can
    // cancel out over a full run but not at every intermediate length.
    const SemiLocalKernel fresh = grow_a ? semi_local_kernel(grown, fixed)
                                         : semi_local_kernel(fixed, grown);
    expect_kernel_equal(incremental.kernel(), fresh,
                        (grow_a ? std::string("append_a") : std::string("append_b")) +
                            " chunk_size " + std::to_string(chunk_size) +
                            " length " + std::to_string(grown.size()));
  }
}

TEST(IncrementalKernel, AppendAPinsAcrossUnevenChunkSizes) {
  for (const Index chunk_size : {Index{1}, Index{13}, Index{32}}) {
    run_incremental_append_pin(/*grow_a=*/true, chunk_size);
  }
}

TEST(IncrementalKernel, AppendBPinsAcrossUnevenChunkSizes) {
  for (const Index chunk_size : {Index{1}, Index{13}, Index{32}}) {
    run_incremental_append_pin(/*grow_a=*/false, chunk_size);
  }
}

TEST(IncrementalKernel, InterleavedAppendsMatchFreshKernel) {
  Rng rng(81);
  IncrementalKernel incremental({}, {});
  Sequence a;
  Sequence b;
  for (int step = 0; step < 24; ++step) {
    const Index len = rng.uniform(1, 17);  // uneven on purpose
    Sequence chunk;
    for (Index i = 0; i < len; ++i) {
      chunk.push_back(static_cast<Symbol>(rng.uniform(0, 3)));
    }
    if (rng.uniform(0, 1) == 0) {
      a.insert(a.end(), chunk.begin(), chunk.end());
      incremental.append_a(chunk);
    } else {
      b.insert(b.end(), chunk.begin(), chunk.end());
      incremental.append_b(chunk);
    }
    expect_kernel_equal(incremental.kernel(), semi_local_kernel(a, b),
                        "interleaved step " + std::to_string(step));
  }
}

// ---------------------------------------------------------------------------
// Concurrency hammer (the TSan target): upserts on distinct ids racing
// queries and each other through the shared engine, store and corpus lock.

TEST(IncrementalCorpus, ConcurrentUpsertsAndReads) {
  const ScratchDir scratch;
  EngineOptions engine_options = test_engine_options(scratch.file("store"));
  engine_options.scheduler.workers = 2;
  ComparisonEngine engine(engine_options);
  CorpusManagerOptions corpus_options =
      test_corpus_options(scratch.file("corpus"), 32);
  corpus_options.drain_inline = false;  // real workers this time
  CorpusManager corpus(engine, corpus_options);

  corpus.upsert_document("w0", testing::random_string(96, 4, 90));
  corpus.upsert_document("w1", testing::random_string(96, 4, 91));

  constexpr int kWriters = 2;
  constexpr int kRounds = 6;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> team;
  for (int w = 0; w < kWriters; ++w) {
    team.emplace_back([&, w] {
      try {
        const std::string id = "w" + std::to_string(w);
        Sequence doc = *corpus.document(id);
        Rng rng(100 + static_cast<std::uint64_t>(w));
        for (int round = 0; round < kRounds; ++round) {
          const Sequence tail = testing::random_string(
              rng.uniform(1, 48), 4, 200 + static_cast<std::uint64_t>(round));
          doc.insert(doc.end(), tail.begin(), tail.end());
          corpus.upsert_document(id, doc);
        }
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  team.emplace_back([&] {
    // Readers race the writers through the same mutex and engine.
    while (!stop.load(std::memory_order_relaxed)) {
      (void)corpus.generation();
      (void)corpus.index_entries();
      if (const auto doc = corpus.document("w0")) {
        (void)engine.store().find(make_pair_key(*doc, *doc));
      }
      std::this_thread::yield();
    }
  });
  for (int w = 0; w < kWriters; ++w) team[static_cast<std::size_t>(w)].join();
  stop.store(true, std::memory_order_relaxed);
  team.back().join();

  EXPECT_EQ(failures.load(), 0);
  ASSERT_EQ(corpus.documents(), 2u);
  const Sequence final_w0 = *corpus.document("w0");
  const Sequence final_w1 = *corpus.document("w1");
  expect_published_pair_matches_oracle(engine, final_w0, final_w1, "hammer");
}

}  // namespace
}  // namespace semilocal
