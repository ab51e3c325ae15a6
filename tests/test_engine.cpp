// Comparison-engine subsystem tests: LRU cache accounting and eviction
// order, kernel store disk tier, scheduler coalescing + backpressure
// (deterministic via workers = 0 + drain()), wire protocol round-trips, the
// thread-safe query layer against the brute-force oracle, and the
// acceptance end-to-end: a mixed repeated load must cost one computation per
// distinct pair -- asserted via the engine stats counters, not timing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "engine/engine.hpp"
#include "engine/protocol.hpp"
#include "oracles.hpp"
#include "scratch.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

namespace fs = std::filesystem;
using testing::ScratchDir;

CachedKernelPtr make_entry(Index la, Index lb, std::uint64_t seed) {
  const auto a = testing::random_string(la, 4, seed * 2 + 1);
  const auto b = testing::random_string(lb, 4, seed * 2 + 2);
  return std::make_shared<const CachedKernel>(
      std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b)));
}

PairKey key_for(std::uint64_t seed) {
  const auto a = testing::random_string(16, 4, seed * 2 + 1);
  const auto b = testing::random_string(16, 4, seed * 2 + 2);
  return make_pair_key(a, b);
}

TEST(LruCache, EvictsLeastRecentlyUsedFirst) {
  const CachedKernelPtr k0 = make_entry(16, 16, 0);
  const CachedKernelPtr k1 = make_entry(16, 16, 1);
  const CachedKernelPtr k2 = make_entry(16, 16, 2);
  const std::size_t each = k0->resident_bytes();
  // Budget fits exactly two equally-sized kernels.
  LruKernelCache cache(2 * each);
  cache.put(key_for(0), k0);
  cache.put(key_for(1), k1);
  // Touch k0 so k1 becomes the least recently used...
  ASSERT_NE(cache.get(key_for(0)), nullptr);
  // ...then inserting k2 must evict k1, not k0.
  cache.put(key_for(2), k2);
  EXPECT_NE(cache.get(key_for(0)), nullptr);
  EXPECT_EQ(cache.get(key_for(1)), nullptr);
  EXPECT_NE(cache.get(key_for(2)), nullptr);
  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, stats.budget_bytes);
}

TEST(LruCache, CountsHitsAndMisses) {
  LruKernelCache cache(std::size_t{1} << 20);
  EXPECT_EQ(cache.get(key_for(0)), nullptr);
  cache.put(key_for(0), make_entry(8, 8, 0));
  EXPECT_NE(cache.get(key_for(0)), nullptr);
  EXPECT_EQ(cache.get(key_for(1)), nullptr);
  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(LruCache, EntryLargerThanBudgetIsNotCached) {
  const CachedKernelPtr big = make_entry(64, 64, 0);
  LruKernelCache cache(big->resident_bytes() - 1);
  cache.put(key_for(0), big);
  EXPECT_EQ(cache.get(key_for(0)), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(LruCache, EvictionNeverFreesUnderAReader) {
  // A reader holding the entry pointer keeps it alive past eviction.
  LruKernelCache cache(std::size_t{1} << 10);
  CachedKernelPtr held;
  {
    const CachedKernelPtr k = make_entry(16, 16, 0);
    cache.put(key_for(0), k);
    held = cache.get(key_for(0));
    ASSERT_NE(held, nullptr);
  }
  for (std::uint64_t s = 1; s < 32; ++s) cache.put(key_for(s), make_entry(16, 16, s));
  EXPECT_EQ(cache.get(key_for(0)), nullptr);  // evicted from the cache...
  EXPECT_EQ(held->kernel().m(), 16);          // ...but still valid for the holder
}

TEST(KernelStore, DiskTierSurvivesProcessRestart) {
  ScratchDir dir("store_roundtrip");
  const auto a = testing::random_string(32, 4, 1);
  const auto b = testing::random_string(40, 4, 2);
  const PairKey key = make_pair_key(a, b);
  KernelStoreOptions options;
  options.dir = dir.str();
  {
    KernelStore store(options);
    store.put(key, std::make_shared<const CachedKernel>(
                       std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b))));
    EXPECT_EQ(store.stats().disk_writes, 1u);
    EXPECT_TRUE(store.on_disk(key));
  }
  // A fresh store (cold cache) over the same directory must load it back.
  KernelStore store(options);
  const CachedKernelPtr loaded = store.find(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->kernel().m(), 32);
  EXPECT_EQ(loaded->kernel().n(), 40);
  EXPECT_EQ(store.stats().disk_hits, 1u);
  // The disk hit was promoted: the next find is a pure cache hit.
  ASSERT_NE(store.find(key), nullptr);
  EXPECT_EQ(store.stats().cache.hits, 1u);
  EXPECT_EQ(store.stats().disk_hits, 1u);
}

TEST(KernelStore, DiskHitsComeBackCompressedAndPromoteWhenHot) {
  ScratchDir dir("store_tiers");
  const auto a = testing::random_string(600, 4, 3);
  const auto b = testing::random_string(640, 4, 4);
  const PairKey key = make_pair_key(a, b);
  KernelStoreOptions options;
  options.dir = dir.str();
  options.promote_after_hits = 2;
  {
    KernelStore warm(options);
    warm.put(key, std::make_shared<const CachedKernel>(
                      std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b))));
  }
  KernelStore store(options);
  const CachedKernelPtr loaded = store.find(key);
  ASSERT_NE(loaded, nullptr);
  // The v3 disk hit lands compressed-resident, charged far below the
  // decoded footprint, and still answers queries correctly by streaming.
  EXPECT_TRUE(loaded->is_compressed());
  EXPECT_EQ(store.stats().compressed_loads, 1u);
  EXPECT_EQ(store.stats().cache.compressed_entries, 1u);
  EXPECT_LT(store.stats().cache.compressed_bytes,
            kernel_resident_bytes(loaded->order()) / 2);
  QueryCounters counters;
  EXPECT_EQ(answer_query(*loaded, QueryKind::kLcs, 0, 0, /*use_index=*/true,
                         &counters),
            testing::lcs_oracle(a, b));
  EXPECT_EQ(counters.compressed.load(), 1u);
  EXPECT_GT(counters.blocks_decoded.load(), 0u);
  // Hits 1 and 2 keep serving compressed; hit 2 crosses the threshold and
  // the entry is promoted to the decoded tier.
  ASSERT_NE(store.find(key), nullptr);
  EXPECT_EQ(store.stats().promotions, 0u);
  const CachedKernelPtr hot = store.find(key);
  ASSERT_NE(hot, nullptr);
  EXPECT_FALSE(hot->is_compressed());
  EXPECT_EQ(store.stats().promotions, 1u);
  EXPECT_EQ(store.stats().cache.compressed_entries, 0u);
  EXPECT_GE(store.stats().cache.bytes, kernel_resident_bytes(hot->order()));
  EXPECT_GT(store.stats().blocks_decoded, 0u);  // the promotion's full decode
  // Promoted answers match the compressed-path answers.
  EXPECT_EQ(answer_query(*hot, QueryKind::kLcs, 0, 0, /*use_index=*/true),
            testing::lcs_oracle(a, b));
}

TEST(KernelStore, PromotionRespectsDecodedTierHeadroom) {
  ScratchDir dir("store_headroom");
  const auto a = testing::random_string(600, 4, 5);
  const auto b = testing::random_string(640, 4, 6);
  const PairKey key = make_pair_key(a, b);
  KernelStoreOptions options;
  options.dir = dir.str();
  options.promote_after_hits = 1;
  options.promoted_fraction = 0.0;  // no decoded-tier budget at all
  {
    KernelStore warm(options);
    warm.put(key, std::make_shared<const CachedKernel>(
                      std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b))));
  }
  KernelStore store(options);
  ASSERT_NE(store.find(key), nullptr);
  for (int hit = 0; hit < 4; ++hit) {
    const CachedKernelPtr entry = store.find(key);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->is_compressed()) << "hit " << hit;
  }
  EXPECT_EQ(store.stats().promotions, 0u);
}

TEST(KernelStore, RawFormatOptionKeepsEntriesDecoded) {
  ScratchDir dir("store_v2_opt");
  const auto a = testing::random_string(50, 4, 7);
  const auto b = testing::random_string(44, 4, 8);
  const PairKey key = make_pair_key(a, b);
  KernelStoreOptions options;
  options.dir = dir.str();
  options.format = KernelFormat::kV2Raw;
  {
    KernelStore warm(options);
    warm.put(key, std::make_shared<const CachedKernel>(
                      std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b))));
  }
  KernelStore store(options);
  const CachedKernelPtr loaded = store.find(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_FALSE(loaded->is_compressed());
  EXPECT_EQ(store.stats().compressed_loads, 0u);
  EXPECT_DOUBLE_EQ(store.stats().compression_ratio(), 1.0);
}

TEST(KernelStore, CorruptFileIsAMissNotACrash) {
  ScratchDir dir("store_corrupt");
  const PairKey key = key_for(7);
  {
    std::ofstream out(fs::path(dir.str()) / (key.hex() + ".slk"), std::ios::binary);
    out << "this is not a kernel";
  }
  KernelStoreOptions options;
  options.dir = dir.str();
  KernelStore store(options);
  EXPECT_EQ(store.find(key), nullptr);
  EXPECT_EQ(store.stats().disk_errors, 1u);
}

EngineOptions drain_mode(int max_queue = 256) {
  EngineOptions options;
  options.scheduler.workers = 0;  // deterministic: compute only in drain()
  options.scheduler.max_queue = static_cast<std::size_t>(max_queue);
  return options;
}

TEST(Scheduler, DuplicateSubmissionsCoalesceToOneComputation) {
  ComparisonEngine engine(drain_mode());
  const auto a = testing::random_string(64, 4, 1);
  const auto b = testing::random_string(64, 4, 2);
  auto first = engine.entry_async(a, b);
  auto second = engine.entry_async(a, b);
  EXPECT_GT(engine.drain(), 0u);
  // Both callers got the same kernel from a single computation.
  EXPECT_EQ(first.get(), second.get());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.coalesced, 1u);
  EXPECT_EQ(stats.scheduler.computed, 1u);
  EXPECT_EQ(stats.scheduler.inflight, 0u);
}

TEST(Scheduler, FullQueueRejectsWithRetryHint) {
  ComparisonEngine engine(drain_mode(/*max_queue=*/2));
  auto f0 = engine.entry_async(testing::random_string(16, 4, 1),
                                testing::random_string(16, 4, 2));
  auto f1 = engine.entry_async(testing::random_string(16, 4, 3),
                                testing::random_string(16, 4, 4));
  try {
    (void)engine.entry_async(testing::random_string(16, 4, 5),
                              testing::random_string(16, 4, 6));
    FAIL() << "third submission should have been rejected";
  } catch (const EngineOverloaded& e) {
    EXPECT_GT(e.retry_after_ms(), 0);
  }
  EXPECT_EQ(engine.stats().scheduler.rejected, 1u);
  // Draining frees the queue; the rejected pair now goes through.
  engine.drain();
  auto f2 = engine.entry_async(testing::random_string(16, 4, 5),
                                testing::random_string(16, 4, 6));
  engine.drain();
  EXPECT_NE(f2.get(), nullptr);
  EXPECT_EQ(engine.stats().scheduler.computed, 3u);
}

/// Regression: a client loop that honors the retry-after hint must make
/// progress through sustained overload, and after mass rejection a drain()
/// must leave no stuck futures behind (queue empty, nothing in flight,
/// every accepted future resolved).
TEST(Scheduler, RetryAfterHintsAreHonoredAndDrainLeavesNoStuckFutures) {
  constexpr std::uint64_t kPairs = 24;
  ComparisonEngine engine(drain_mode(/*max_queue=*/4));
  std::vector<std::shared_future<CachedKernelPtr>> accepted;
  std::uint64_t rejections = 0;
  for (std::uint64_t p = 0; p < kPairs; ++p) {
    const auto a = testing::random_string(24, 4, 900 + p * 2);
    const auto b = testing::random_string(24, 4, 901 + p * 2);
    // Client loop: submit, and on overload honor the hint (in drain mode,
    // "waiting retry_after_ms" is standing in for a real sleep -- the queue
    // frees because we drain, which is what the hint promises time for).
    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 8) << "pair " << p << " never accepted";
      try {
        accepted.push_back(engine.entry_async(a, b));
        break;
      } catch (const EngineOverloaded& e) {
        ++rejections;
        EXPECT_GT(e.retry_after_ms(), 0);
        engine.drain();
      }
    }
  }
  ASSERT_GT(rejections, 0u) << "queue of 4 never overflowed -- test is vacuous";
  engine.drain();
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    ASSERT_EQ(accepted[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "future " << i << " stuck after drain()";
    EXPECT_NE(accepted[i].get(), nullptr) << i;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.computed, kPairs);
  EXPECT_EQ(stats.scheduler.rejected, rejections);
  EXPECT_EQ(stats.scheduler.queue_depth, 0u);
  EXPECT_EQ(stats.scheduler.inflight, 0u);
}

TEST(Scheduler, EachQueuedMissRunsAsItsOwnJob) {
  ComparisonEngine engine(drain_mode());
  std::vector<std::shared_future<CachedKernelPtr>> futures;
  for (std::uint64_t s = 0; s < 8; ++s) {
    futures.push_back(engine.entry_async(testing::random_string(24, 4, 100 + s * 2),
                                         testing::random_string(24, 4, 101 + s * 2)));
  }
  EXPECT_EQ(engine.drain(), 8u);  // one run per queued pair
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.computed, 8u);
  EXPECT_EQ(stats.scheduler.batches, 8u);  // the "batches" counter counts single-pair runs
  EXPECT_EQ(stats.scheduler.queue_depth, 0u);
  for (const auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_NE(f.get(), nullptr);
  }
}

/// An Env over the real filesystem whose kernel writes a test can hold up:
/// the first write waits for release(); the third waits (bounded) for
/// `watched` to become ready and records whether it did.
class GatedWriteEnv : public Env {
 public:
  std::string read_file(const std::string& path) override { return base_.read_file(path); }
  MappedFilePtr map_file(const std::string& path) override { return base_.map_file(path); }
  void rename_file(const std::string& from, const std::string& to) override {
    base_.rename_file(from, to);
  }
  void remove_file(const std::string& path) override { base_.remove_file(path); }
  std::vector<std::string> list_dir(const std::string& dir) override {
    return base_.list_dir(dir);
  }
  bool exists(const std::string& path) override { return base_.exists(path); }
  bool create_dirs(const std::string& dir) override { return base_.create_dirs(dir); }
  std::uint64_t now_ns() override { return base_.now_ns(); }

  void write_file(const std::string& path, std::string_view data) override {
    std::unique_lock lock(mutex_);
    const int nth = ++writes_;
    changed_.notify_all();
    if (nth == 1) {
      changed_.wait_for(lock, std::chrono::seconds(10), [this] { return released_; });
    } else if (nth == 3) {
      const std::shared_future<CachedKernelPtr> watched = watched_;
      lock.unlock();
      watched_ready_at_third_write_ =
          watched.wait_for(std::chrono::seconds(3)) == std::future_status::ready;
      lock.lock();
    }
    lock.unlock();
    base_.write_file(path, data);
  }

  void wait_for_first_write() {
    std::unique_lock lock(mutex_);
    changed_.wait_for(lock, std::chrono::seconds(10), [this] { return writes_ >= 1; });
  }
  void release(std::shared_future<CachedKernelPtr> watched) {
    std::lock_guard lock(mutex_);
    watched_ = std::move(watched);
    released_ = true;
    changed_.notify_all();
  }
  [[nodiscard]] bool watched_ready_at_third_write() const {
    return watched_ready_at_third_write_;
  }

 private:
  Env& base_ = real_env();
  std::mutex mutex_;
  std::condition_variable changed_;
  int writes_ = 0;
  bool released_ = false;
  std::shared_future<CachedKernelPtr> watched_;
  std::atomic<bool> watched_ready_at_third_write_{false};
};

/// Per-pair scheduling: two pairs queued behind a busy worker are combed,
/// persisted and resolved one at a time -- the first caller's future is
/// ready before the second pair's kernel is even written.
TEST(Scheduler, EachJobResolvesBeforeTheNextIsPersisted) {
  ScratchDir dir("scheduler_per_pair");
  GatedWriteEnv env;
  EngineOptions options;
  options.store.dir = dir.str();
  options.scheduler.workers = 1;
  options.env = &env;
  ComparisonEngine engine(options);

  // The gate pair's write (the first) holds the only worker while the two
  // test pairs queue up behind it.
  auto gate = engine.entry_async(testing::random_string(48, 4, 700),
                                 testing::random_string(48, 4, 701));
  env.wait_for_first_write();
  auto first = engine.entry_async(testing::random_string(48, 4, 702),
                                  testing::random_string(48, 4, 703));
  auto second = engine.entry_async(testing::random_string(48, 4, 704),
                                   testing::random_string(48, 4, 705));
  ASSERT_EQ(engine.stats().scheduler.queue_depth, 2u);
  env.release(first);

  EXPECT_NE(gate.get(), nullptr);
  EXPECT_NE(first.get(), nullptr);
  EXPECT_NE(second.get(), nullptr);
  EXPECT_TRUE(env.watched_ready_at_third_write())
      << "the second pair was persisted before the first caller was answered";
  EXPECT_EQ(engine.stats().store.disk_writes, 3u);
}

/// A cold kLcs is answered from the score the entry read off the kernel at
/// construction: no QueryIndex is built for it, yet it counts as indexed.
/// Holds for drain mode and for a threaded engine under concurrent cold
/// traffic alike -- workers never build an index.
TEST(Scheduler, ColdLcsDoesNotBuildTheIndex) {
  {
    SCOPED_TRACE("drain mode");
    ComparisonEngine engine(drain_mode());
    const auto a = testing::random_string(80, 4, 41);
    const auto b = testing::random_string(96, 4, 42);
    auto pending = engine.entry_async(a, b);
    engine.drain();
    EXPECT_EQ(engine.lcs(a, b), testing::lcs_oracle(a, b));
    EXPECT_EQ(pending.get()->index_if_built(), nullptr);
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.queries.index_builds, 0u);
    EXPECT_EQ(stats.queries.indexed, 1u);
    EXPECT_EQ(stats.queries.scanned, 0u);
  }
  SCOPED_TRACE("threaded engine");
  constexpr std::uint64_t kPairs = 12;
  constexpr int kClients = 4;
  EngineOptions options;
  options.scheduler.workers = 3;
  ComparisonEngine engine(options);
  std::vector<std::pair<Sequence, Sequence>> pool;
  for (std::uint64_t p = 0; p < kPairs; ++p) {
    pool.emplace_back(testing::random_string(90, 4, 4300 + p * 2),
                      testing::random_string(110, 4, 4301 + p * 2));
  }
  // Every client asks for every pair, staggered, so cold computes, coalesced
  // waits and warm repeats all land while the workers are busy.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (std::uint64_t k = 0; k < kPairs; ++k) {
        const auto& [a, b] = pool[(k + static_cast<std::uint64_t>(t) * 3) % kPairs];
        if (engine.lcs(a, b) != testing::lcs_oracle(a, b)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduler.computed, kPairs);
  EXPECT_EQ(stats.queries.index_builds, 0u);
  EXPECT_EQ(stats.queries.indexed, kPairs * kClients);
  for (const auto& [a, b] : pool) {
    const CachedKernelPtr entry = engine.store().find(make_pair_key(a, b));
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->index_if_built(), nullptr);
  }
}

/// The first window query on a computed pair builds its QueryIndex exactly
/// once, however many callers race it; every caller gets oracle answers.
TEST(Scheduler, FirstWindowQueryBuildsTheIndexOnceUnderConcurrentCallers) {
  EngineOptions options;
  options.scheduler.workers = 2;
  ComparisonEngine engine(options);
  const auto a = testing::random_string(150, 4, 4401);
  const auto b = testing::random_string(170, 4, 4402);
  EXPECT_EQ(engine.lcs(a, b), testing::lcs_oracle(a, b));  // computed, no index
  ASSERT_EQ(engine.stats().queries.index_builds, 0u);

  const auto n = static_cast<Index>(b.size());
  const auto m = static_cast<Index>(a.size());
  std::vector<WindowQuery> windows;
  for (Index j0 = 0; j0 < n; j0 += 17) windows.push_back({QueryKind::kStringSubstring, j0, n});
  for (Index i0 = 0; i0 < m; i0 += 19) windows.push_back({QueryKind::kSubstringString, 0, m - i0});
  std::vector<Index> expected;
  for (const WindowQuery& w : windows) {
    const Sequence wa = w.kind == QueryKind::kSubstringString
                            ? Sequence(a.begin() + w.x, a.begin() + w.y)
                            : a;
    const Sequence wb = w.kind == QueryKind::kStringSubstring
                            ? Sequence(b.begin() + w.x, b.begin() + w.y)
                            : b;
    expected.push_back(testing::lcs_oracle(wa, wb));
  }

  constexpr int kCallers = 8;
  std::atomic<int> at_gate{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      at_gate.fetch_add(1);
      while (at_gate.load() < kCallers) std::this_thread::yield();
      if (t % 2 == 0) {
        if (engine.answer_batch(a, b, windows) != expected) mismatches.fetch_add(1);
      } else {
        const std::size_t k = static_cast<std::size_t>(t) % windows.size();
        const Index got = windows[k].kind == QueryKind::kStringSubstring
                              ? engine.string_substring(a, b, windows[k].x, windows[k].y)
                              : engine.substring_string(a, b, windows[k].x, windows[k].y);
        if (got != expected[k]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries.index_builds, 1u);
  EXPECT_EQ(stats.queries.scanned, 0u);
  EXPECT_EQ(stats.scheduler.computed, 1u);
}

TEST(QueryLayer, MatchesBruteForceOracle) {
  const auto a = testing::random_string(18, 3, 11);
  const auto b = testing::random_string(23, 3, 12);
  const SemiLocalKernel kernel = semi_local_kernel(a, b);
  EXPECT_EQ(kernel.lcs(), testing::lcs_oracle(a, b));
  const auto n = static_cast<Index>(b.size());
  const auto m = static_cast<Index>(a.size());
  for (Index j0 = 0; j0 <= n; ++j0) {
    for (Index j1 = j0; j1 <= n; ++j1) {
      const Sequence window(b.begin() + j0, b.begin() + j1);
      ASSERT_EQ(kernel.string_substring(j0, j1), testing::lcs_oracle(a, window))
          << "j0=" << j0 << " j1=" << j1;
    }
  }
  for (Index i0 = 0; i0 <= m; ++i0) {
    for (Index i1 = i0; i1 <= m; ++i1) {
      const Sequence window(a.begin() + i0, a.begin() + i1);
      ASSERT_EQ(kernel.substring_string(i0, i1), testing::lcs_oracle(window, b))
          << "i0=" << i0 << " i1=" << i1;
    }
  }
}

TEST(QueryLayer, RejectsOutOfRangeWindows) {
  const SemiLocalKernel kernel =
      semi_local_kernel(testing::random_string(8, 3, 1), testing::random_string(9, 3, 2));
  EXPECT_THROW((void)kernel.string_substring(-1, 3), std::out_of_range);
  EXPECT_THROW((void)kernel.string_substring(4, 2), std::out_of_range);
  EXPECT_THROW((void)kernel.string_substring(0, 10), std::out_of_range);
  EXPECT_THROW((void)kernel.substring_string(0, 9), std::out_of_range);
}

TEST(Protocol, RequestRoundTrips) {
  Request request;
  request.op = Op::kStringSubstring;
  request.x = 3;
  request.y = 41;
  request.a = testing::random_string(50, 4, 1);
  request.b = testing::random_string(70, 4, 2);
  const Request decoded = decode_request(encode_request(request));
  EXPECT_EQ(decoded.op, request.op);
  EXPECT_EQ(decoded.x, request.x);
  EXPECT_EQ(decoded.y, request.y);
  EXPECT_EQ(decoded.a, request.a);
  EXPECT_EQ(decoded.b, request.b);
}

TEST(Protocol, BatchQueryRoundTrips) {
  Request request;
  request.op = Op::kBatchQuery;
  request.a = testing::random_string(30, 4, 3);
  request.b = testing::random_string(35, 4, 4);
  request.windows = {{QueryKind::kLcs, 0, 0},
                     {QueryKind::kStringSubstring, 5, 20},
                     {QueryKind::kSubstringString, 2, 28}};
  const Request decoded = decode_request(encode_request(request));
  EXPECT_EQ(decoded.op, Op::kBatchQuery);
  ASSERT_EQ(decoded.windows.size(), request.windows.size());
  for (std::size_t i = 0; i < request.windows.size(); ++i) {
    EXPECT_EQ(decoded.windows[i].kind, request.windows[i].kind) << i;
    EXPECT_EQ(decoded.windows[i].x, request.windows[i].x) << i;
    EXPECT_EQ(decoded.windows[i].y, request.windows[i].y) << i;
  }

  Response response;
  response.values = {17, -1, 9};
  const Response round = decode_response(encode_response(response));
  EXPECT_EQ(round.values, response.values);

  // Unknown window kind byte is rejected.
  std::string bad = encode_request(request);
  // kind byte of window 0 sits right after op + 2*i64 + 2*u32 + |a| + |b| + u32.
  const std::size_t kind_at = 1 + 16 + 8 + request.a.size() + request.b.size() + 4;
  bad[kind_at] = 99;
  EXPECT_THROW((void)decode_request(bad), ProtocolError);
}

TEST(Protocol, ResponseRoundTrips) {
  Response response;
  response.status = Status::kOverloaded;
  response.value = -7;
  response.retry_ms = 12;
  response.text = "queue full";
  const Response decoded = decode_response(encode_response(response));
  EXPECT_EQ(decoded.status, response.status);
  EXPECT_EQ(decoded.value, response.value);
  EXPECT_EQ(decoded.retry_ms, response.retry_ms);
  EXPECT_EQ(decoded.text, response.text);
}

TEST(Protocol, MalformedPayloadsThrow) {
  Request request;
  request.op = Op::kLcs;
  request.a = testing::random_string(10, 4, 1);
  request.b = testing::random_string(10, 4, 2);
  const std::string valid = encode_request(request);
  // Unknown op byte.
  std::string bad_op = valid;
  bad_op[0] = 99;
  EXPECT_THROW((void)decode_request(bad_op), ProtocolError);
  // Truncation at every prefix length.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    EXPECT_THROW((void)decode_request(valid.substr(0, cut)), ProtocolError) << cut;
  }
  // Trailing garbage.
  EXPECT_THROW((void)decode_request(valid + "x"), ProtocolError);
  EXPECT_THROW((void)decode_response(std::string_view{}), ProtocolError);
}

TEST(Protocol, FramingRoundTripsAndRejectsTruncation) {
  std::stringstream wire;
  write_frame(wire, "hello");
  write_frame(wire, "");
  const auto first = read_frame(wire);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "hello");
  const auto second = read_frame(wire);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "");
  EXPECT_FALSE(read_frame(wire).has_value());  // clean EOF

  std::stringstream truncated(std::string("\x05\x00\x00\x00he", 6));
  EXPECT_THROW((void)read_frame(truncated), ProtocolError);
  std::stringstream half_header(std::string("\x05\x00", 2));
  EXPECT_THROW((void)read_frame(half_header), ProtocolError);
  std::stringstream oversized(std::string("\xff\xff\xff\xff", 4));
  EXPECT_THROW((void)read_frame(oversized), ProtocolError);
}

/// Acceptance: a mixed load with repeats costs one computation per distinct
/// pair, with the repeats answered from the cache -- per the stats counters.
TEST(EngineEndToEnd, RepeatedPairsAreNeverRecomputed) {
  ScratchDir dir("engine_e2e");
  constexpr std::uint64_t kDistinctPairs = 4;
  constexpr int kRounds = 5;
  std::vector<std::pair<Sequence, Sequence>> pool;
  for (std::uint64_t p = 0; p < kDistinctPairs; ++p) {
    pool.emplace_back(testing::random_string(96, 4, 500 + p * 2),
                      testing::random_string(96, 4, 501 + p * 2));
  }

  EngineOptions options;
  options.store.dir = dir.str();
  options.scheduler.workers = 1;
  ComparisonEngine engine(options);
  std::vector<Index> first_scores;
  for (int round = 0; round < kRounds; ++round) {
    for (std::uint64_t p = 0; p < kDistinctPairs; ++p) {
      const Index score = engine.lcs(pool[p].first, pool[p].second);
      if (round == 0) {
        first_scores.push_back(score);
      } else {
        ASSERT_EQ(score, first_scores[p]) << "round " << round << " pair " << p;
      }
    }
  }

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, kDistinctPairs * kRounds);
  // One computation per distinct pair -- repeats never recompute.
  EXPECT_EQ(stats.scheduler.computed, kDistinctPairs);
  // Every repeat round was served from the in-memory cache.
  EXPECT_EQ(stats.store.cache.hits, kDistinctPairs * (kRounds - 1));
  EXPECT_GT(stats.cache_hit_rate(), 0.0);
  EXPECT_EQ(stats.store.disk_writes, kDistinctPairs);
  // Both the compute path and the cache fast path record a latency sample.
  EXPECT_EQ(stats.latency.count, stats.requests);
  // Every query went through the index route (kLcs off the entry's cached
  // score), the scan fallback never fired, and kLcs-only traffic built no
  // index at all: workers never build one.
  EXPECT_EQ(stats.queries.indexed, stats.requests);
  EXPECT_EQ(stats.queries.scanned, 0u);
  EXPECT_EQ(stats.queries.index_builds, 0u);
  // The first window query per pair builds its index; repeats reuse it.
  for (int round = 0; round < 2; ++round) {
    for (const auto& [a, b] : pool) {
      const auto n = static_cast<Index>(b.size());
      EXPECT_EQ(engine.string_substring(a, b, 0, n), engine.lcs(a, b));
    }
  }
  EXPECT_EQ(engine.stats().queries.index_builds, kDistinctPairs);

  // Warm restart over the same store directory: zero recompute, all disk.
  ComparisonEngine warm(options);
  for (std::uint64_t p = 0; p < kDistinctPairs; ++p) {
    EXPECT_EQ(warm.lcs(pool[p].first, pool[p].second), first_scores[p]);
  }
  const EngineStats warm_stats = warm.stats();
  EXPECT_EQ(warm_stats.scheduler.computed, 0u);
  EXPECT_EQ(warm_stats.store.disk_hits, kDistinctPairs);
}

}  // namespace
}  // namespace semilocal
