// QueryIndex subsystem tests.
//
// Three layers of evidence that the shared immutable index is correct and
// thread-safe:
//
//   1. The flattened wavelet tree agrees with the O(n) dominance scan and
//      with the pointer-built WaveletTree on random permutations, across
//      sizes that cross word and superblock boundaries (including the
//      n % 64 == 0 edge that exercises the pad word).
//   2. QueryIndex, the engine scan layer, the SemiLocalKernel member API,
//      and the brute-force prefix oracle all agree on random kernels for
//      every query kind -- the formula-dedup guarantee of
//      core/query_formulas.hpp, asserted end to end.
//   3. Hammer tests: many threads query one shared CachedKernel
//      concurrently (with and without a pre-built index) and every answer
//      must match the single-threaded ground truth; the std::call_once
//      build must run exactly once. The same holds for a bare
//      SemiLocalKernel queried through its own member API, whose lazy
//      merge-sort tree is built under a once-flag. Run these under the tsan
//      preset to get data-race checking, not just correctness.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/query_formulas.hpp"
#include "core/query_index.hpp"
#include "dominance/mergesort_tree.hpp"
#include "dominance/wavelet_tree.hpp"
#include "engine/engine.hpp"
#include "oracles.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

Permutation random_permutation(Index n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Index> targets(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) targets[static_cast<std::size_t>(i)] = i;
  for (Index i = n - 1; i > 0; --i) {
    std::swap(targets[static_cast<std::size_t>(i)],
              targets[static_cast<std::size_t>(rng.uniform(0, i))]);
  }
  Permutation p(n);
  for (Index i = 0; i < n; ++i) p.set(i, targets[static_cast<std::size_t>(i)]);
  return p;
}

TEST(FlatWaveletTree, MatchesDominanceScanOnRandomPermutations) {
  // Sizes straddle the word (64) and superblock (512) boundaries; the exact
  // multiples exercise the pad-word edge where rank1(n) touches bit n.
  for (const Index n : {1, 2, 7, 63, 64, 65, 200, 511, 512, 513, 1000}) {
    const Permutation p = random_permutation(n, static_cast<std::uint64_t>(n) * 31 + 7);
    const FlatWaveletTree flat(p);
    const WaveletTree pointer_tree(p);
    ASSERT_EQ(flat.size(), n);
    Rng rng(static_cast<std::uint64_t>(n) + 99);
    const Index probes = std::min<Index>(n + 2, 40);
    for (Index t = 0; t < probes; ++t) {
      const Index i = rng.uniform(0, n);
      const Index j = rng.uniform(0, n);
      ASSERT_EQ(flat.count(i, j), p.dominance_sum(i, j)) << "n=" << n << " i=" << i
                                                         << " j=" << j;
      ASSERT_EQ(flat.count(i, j), pointer_tree.count(i, j));
    }
    // Exhaustive corners.
    ASSERT_EQ(flat.count(0, n), p.dominance_sum(0, n));
    ASSERT_EQ(flat.count(n, n), 0);
    ASSERT_EQ(flat.count(0, 0), 0);
  }
}

TEST(FlatWaveletTree, BuildMatchesAtWordEdgesAndOneSidedLevels) {
  // The build packs each level 64 values per register word and partitions
  // through two cursors, only one of which advances per value. Multi-level
  // sizes at and around the 64-word / 512-bit superblock edges check the
  // ragged last word; identity and reversal make levels (and whole nodes)
  // all-zero or all-one, so one cursor never advances across them.
  for (const Index n : {4095, 4096, 4097, 16000, 65537}) {
    const std::pair<const char*, Permutation> shapes[] = {
        {"random", random_permutation(n, static_cast<std::uint64_t>(n) * 13 + 5)},
        {"identity", Permutation::identity(n)},
        {"reversal", Permutation::reversal(n)}};
    for (const auto& [shape, p] : shapes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " " << shape);
      const FlatWaveletTree flat(p);
      const WaveletTree pointer_tree(p);
      ASSERT_EQ(flat.size(), n);
      EXPECT_EQ(flat.resident_bytes(), FlatWaveletTree::projected_bytes(n));
      std::vector<Index> edges = {0,      1,      63,     64,     65,    511, 512,
                                  513,    n / 2,  n - 65, n - 64, n - 1, n};
      Rng rng(static_cast<std::uint64_t>(n) * 3);
      for (int t = 0; t < 24; ++t) edges.push_back(rng.uniform(0, n));
      for (const Index i : edges) {
        for (const Index j : edges) {
          const Index want = p.dominance_sum(i, j);
          ASSERT_EQ(flat.count(i, j), want) << "i=" << i << " j=" << j;
          ASSERT_EQ(pointer_tree.count(i, j), want) << "i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(FlatWaveletTree, CountManyMatchesCount) {
  // The interleaved batch descent must agree with the scalar descent for
  // every lane position (including the ragged tail) and for the trivial
  // cases it peels off (j <= 0, j >= n, lo >= hi, out-of-range inputs).
  for (const Index n : {1, 5, 63, 64, 65, 512, 513, 777}) {
    const Permutation p = random_permutation(n, static_cast<std::uint64_t>(n) * 17 + 3);
    const FlatWaveletTree flat(p);
    Rng rng(static_cast<std::uint64_t>(n) + 4242);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                                    std::size_t{5}, std::size_t{64}, std::size_t{97}}) {
      std::vector<Index> is(batch);
      std::vector<Index> js(batch);
      for (std::size_t t = 0; t < batch; ++t) {
        // Over-range by up to 2 on both ends to hit the clamping paths.
        is[t] = rng.uniform(-2, n + 2);
        js[t] = rng.uniform(-2, n + 2);
      }
      std::vector<Index> got(batch, -1);
      flat.count_many(is.data(), js.data(), got.data(), batch);
      for (std::size_t t = 0; t < batch; ++t) {
        ASSERT_EQ(got[t], flat.count(is[t], js[t]))
            << "n=" << n << " batch=" << batch << " t=" << t << " i=" << is[t]
            << " j=" << js[t];
      }
    }
  }
}

TEST(FlatWaveletTree, ProjectedBytesMatchesResidentBytes) {
  for (const Index n : {1, 64, 100, 512, 2000}) {
    const Permutation p = random_permutation(n, static_cast<std::uint64_t>(n));
    const FlatWaveletTree flat(p);
    EXPECT_EQ(flat.resident_bytes(), FlatWaveletTree::projected_bytes(n)) << "n=" << n;
  }
}

// The three query paths -- SemiLocalKernel's member scan, the engine's
// scan leg (answer_query without the index) and QueryIndex -- answer from
// one shared formula header. All three must agree everywhere, and match the
// literal Definition 3.3 oracle.
TEST(QueryIndex, AllThreeQueryPathsAgreeWithOracle) {
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    const auto a = testing::random_string(14 + static_cast<Index>(trial) * 3, 3,
                                          trial * 2 + 1);
    const auto b = testing::random_string(19 + static_cast<Index>(trial) * 2, 3,
                                          trial * 2 + 2);
    const SemiLocalKernel kernel = semi_local_kernel(a, b);
    const CachedKernel entry(std::make_shared<const SemiLocalKernel>(kernel));
    const QueryIndex& index = entry.index();
    const auto m = static_cast<Index>(a.size());
    const auto n = static_cast<Index>(b.size());

    EXPECT_EQ(index.lcs(), testing::lcs_oracle(a, b));
    EXPECT_EQ(index.lcs(), kernel.lcs());
    EXPECT_EQ(index.lcs(), answer_query(entry, QueryKind::kLcs, 0, 0, /*use_index=*/false));

    for (Index j0 = 0; j0 <= n; ++j0) {
      for (Index j1 = j0; j1 <= n; ++j1) {
        const Sequence window(b.begin() + j0, b.begin() + j1);
        const Index expected = testing::lcs_oracle(a, window);
        ASSERT_EQ(index.string_substring(j0, j1), expected)
            << "trial=" << trial << " j0=" << j0 << " j1=" << j1;
        ASSERT_EQ(kernel.string_substring(j0, j1), expected);
        ASSERT_EQ(answer_query(entry, QueryKind::kStringSubstring, j0, j1, false), expected);
      }
    }
    for (Index i0 = 0; i0 <= m; ++i0) {
      for (Index i1 = i0; i1 <= m; ++i1) {
        const Sequence window(a.begin() + i0, a.begin() + i1);
        const Index expected = testing::lcs_oracle(window, b);
        ASSERT_EQ(index.substring_string(i0, i1), expected)
            << "trial=" << trial << " i0=" << i0 << " i1=" << i1;
        ASSERT_EQ(kernel.substring_string(i0, i1), expected);
        ASSERT_EQ(answer_query(entry, QueryKind::kSubstringString, i0, i1, false), expected);
      }
    }
  }
}

TEST(QueryIndex, RejectsOutOfRangeWindows) {
  const auto a = testing::random_string(8, 3, 1);
  const auto b = testing::random_string(9, 3, 2);
  const QueryIndex index(semi_local_kernel(a, b));
  EXPECT_THROW((void)index.string_substring(-1, 3), std::out_of_range);
  EXPECT_THROW((void)index.string_substring(4, 2), std::out_of_range);
  EXPECT_THROW((void)index.string_substring(0, 10), std::out_of_range);
  EXPECT_THROW((void)index.substring_string(0, 9), std::out_of_range);
}

TEST(QueryIndex, AnswerQueryRoutesAndCounts) {
  const auto a = testing::random_string(24, 4, 5);
  const auto b = testing::random_string(30, 4, 6);
  const CachedKernel entry(
      std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b)));
  QueryCounters counters;

  // Scan route: no index build, the scanned counter moves.
  const Index scanned =
      answer_query(entry, QueryKind::kStringSubstring, 3, 20, /*use_index=*/false,
                   &counters);
  EXPECT_EQ(counters.scanned.load(), 1u);
  EXPECT_EQ(counters.indexed.load(), 0u);
  EXPECT_EQ(counters.index_builds.load(), 0u);
  EXPECT_EQ(entry.index_if_built(), nullptr);

  // Indexed route: first use builds (once), same answer.
  const Index indexed =
      answer_query(entry, QueryKind::kStringSubstring, 3, 20, /*use_index=*/true,
                   &counters);
  EXPECT_EQ(indexed, scanned);
  EXPECT_EQ(counters.indexed.load(), 1u);
  EXPECT_EQ(counters.index_builds.load(), 1u);
  ASSERT_NE(entry.index_if_built(), nullptr);

  // Second indexed query does not rebuild.
  (void)answer_query(entry, QueryKind::kLcs, 0, 0, /*use_index=*/true, &counters);
  EXPECT_EQ(counters.index_builds.load(), 1u);
}

TEST(QueryIndex, BatchAnswersMatchSingleAnswers) {
  // answer_query_batch (the interleaved descent behind the batched protocol
  // op) must agree with answer_query window by window, on both routes, and
  // account every window in the counters.
  const auto a = testing::random_string(48, 4, 7);
  const auto b = testing::random_string(55, 4, 8);
  const CachedKernel entry(
      std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b)));
  const auto m = static_cast<Index>(a.size());
  const auto n = static_cast<Index>(b.size());

  Rng rng(4711);
  std::vector<WindowQuery> windows;
  windows.push_back({QueryKind::kLcs, 0, 0});
  for (int t = 0; t < 150; ++t) {
    if (t % 2 == 0) {
      const Index j0 = rng.uniform(0, n);
      windows.push_back({QueryKind::kStringSubstring, j0, rng.uniform(j0, n)});
    } else {
      const Index i0 = rng.uniform(0, m);
      windows.push_back({QueryKind::kSubstringString, i0, rng.uniform(i0, m)});
    }
  }

  for (const bool use_index : {true, false}) {
    QueryCounters counters;
    std::vector<Index> got(windows.size(), -1);
    answer_query_batch(entry, windows.data(), got.data(), windows.size(),
                       use_index, &counters);
    for (std::size_t t = 0; t < windows.size(); ++t) {
      ASSERT_EQ(got[t], answer_query(entry, windows[t].kind, windows[t].x,
                                     windows[t].y, /*use_index=*/false))
          << "use_index=" << use_index << " t=" << t;
    }
    const auto count = static_cast<std::uint64_t>(windows.size());
    EXPECT_EQ(counters.indexed.load(), use_index ? count : 0u);
    EXPECT_EQ(counters.scanned.load(), use_index ? 0u : count);
  }

  // A bad window anywhere in the batch throws on either route.
  std::vector<WindowQuery> bad = windows;
  bad.push_back({QueryKind::kStringSubstring, 2, n + 1});
  std::vector<Index> sink(bad.size(), 0);
  EXPECT_THROW(answer_query_batch(entry, bad.data(), sink.data(), bad.size(),
                                  /*use_index=*/true),
               std::out_of_range);
  EXPECT_THROW(answer_query_batch(entry, bad.data(), sink.data(), bad.size(),
                                  /*use_index=*/false),
               std::out_of_range);
}

// Hammer: one shared entry, many threads, lazy build racing first queries.
// Every thread's every answer must equal the precomputed ground truth, and
// std::call_once must collapse the racing builds to exactly one.
TEST(QueryIndexHammer, ConcurrentLazyBuildAndQueries) {
  const auto a = testing::random_string(160, 4, 21);
  const auto b = testing::random_string(190, 4, 22);
  const auto kernel = std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b));
  const auto m = static_cast<Index>(a.size());
  const auto n = static_cast<Index>(b.size());

  // Ground truth via the stateless scan, before any threads exist.
  struct Probe {
    QueryKind kind;
    Index x, y, expected;
  };
  std::vector<Probe> probes;
  Rng rng(77);
  for (int q = 0; q < 64; ++q) {
    switch (rng.uniform(0, 2)) {
      case 0:
        probes.push_back({QueryKind::kLcs, 0, 0, kernel->lcs()});
        break;
      case 1: {
        const Index j0 = rng.uniform(0, n);
        const Index j1 = rng.uniform(j0, n);
        probes.push_back(
            {QueryKind::kStringSubstring, j0, j1, kernel->string_substring(j0, j1)});
        break;
      }
      default: {
        const Index i0 = rng.uniform(0, m);
        const Index i1 = rng.uniform(i0, m);
        probes.push_back(
            {QueryKind::kSubstringString, i0, i1, kernel->substring_string(i0, i1)});
        break;
      }
    }
  }

  const auto entry = std::make_shared<const CachedKernel>(kernel);
  QueryCounters counters;
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t p = 0; p < probes.size(); ++p) {
          // Half the threads start on the index (racing the lazy build),
          // half on the scan, so both paths run concurrently on one entry.
          const bool use_index = (t + round) % 2 == 0;
          const Probe& probe = probes[(p + static_cast<std::size_t>(t)) % probes.size()];
          const Index got = answer_query(*entry, probe.kind, probe.x, probe.y,
                                         use_index, &counters);
          if (got != probe.expected) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : team) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(counters.index_builds.load(), 1u);  // call_once collapsed the race
  EXPECT_EQ(counters.indexed.load() + counters.scanned.load(),
            static_cast<std::uint64_t>(kThreads) * kRounds * probes.size());
  ASSERT_NE(entry->index_if_built(), nullptr);
  EXPECT_EQ(entry->index_if_built()->resident_bytes(),
            QueryIndex::projected_bytes(kernel->order()));
}

// Hammer through the engine facade: a shared pair, concurrent kLcs threads;
// warm repeats must never hit the scan fallback, and kLcs traffic never
// builds the index (workers don't; only a window query would).
TEST(QueryIndexHammer, EngineWarmPathIsAllIndexed) {
  const auto a = testing::random_string(120, 4, 31);
  const auto b = testing::random_string(140, 4, 32);
  EngineOptions options;
  options.scheduler.workers = 2;
  ComparisonEngine engine(options);

  const Index expected = engine.lcs(a, b);  // cold: computes, no index
  constexpr int kThreads = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&] {
      for (int round = 0; round < 40; ++round) {
        if (engine.lcs(a, b) != expected) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : team) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  // kLcs answers from the entry's cached score: nothing built an index.
  const CachedKernelPtr entry = engine.store().find(make_pair_key(a, b));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->index_if_built(), nullptr);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries.scanned, 0u);
  EXPECT_EQ(stats.queries.indexed, static_cast<std::uint64_t>(kThreads) * 40 + 1);
  EXPECT_EQ(stats.queries.index_builds, 0u);
  EXPECT_EQ(stats.scheduler.computed, 1u);
}

// Hammer: one shared bare kernel queried through its public member API by
// many threads at once. The kernel is a plain immutable value, so under
// ThreadSanitizer this pins that no member query writes shared state. Every
// answer must match the merge-sort tree and brute-force oracles.
TEST(SharedKernelHammer, ConcurrentMemberQueriesOnFirstUse) {
  const auto a = testing::random_string(140, 4, 51);
  const auto b = testing::random_string(170, 4, 52);
  const SemiLocalKernel kernel = semi_local_kernel(a, b);
  const Index m = kernel.m();
  const Index n = kernel.n();

  struct Probe {
    Index i, j, h, j0, j1, substring;
  };
  const MergesortTree tree(kernel.permutation());
  std::vector<Probe> probes;
  Rng rng(91);
  for (int q = 0; q < 64; ++q) {
    Probe p{};
    p.i = rng.uniform(0, m + n);
    p.j = rng.uniform(0, m + n);
    p.h = h_from_sigma(m, p.i, p.j, tree.count(p.i, p.j));
    p.j0 = rng.uniform(0, n);
    p.j1 = rng.uniform(p.j0, n);
    p.substring = testing::lcs_oracle(
        a, SequenceView(b).subspan(static_cast<std::size_t>(p.j0),
                                   static_cast<std::size_t>(p.j1 - p.j0)));
    probes.push_back(p);
  }
  const Index lcs = testing::lcs_oracle(a, b);

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&, t] {
      for (std::size_t p = 0; p < probes.size(); ++p) {
        const Probe& probe = probes[(p + static_cast<std::size_t>(t) * 7) % probes.size()];
        if (kernel.h(probe.i, probe.j) != probe.h) mismatches.fetch_add(1);
        if (kernel.string_substring(probe.j0, probe.j1) != probe.substring) {
          mismatches.fetch_add(1);
        }
        if (kernel.lcs() != lcs) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : team) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace semilocal
