// Per-pair request scheduler for kernel computations.
//
// The scheduler turns independent cache misses into parallel compute:
//
//   * Coalescing. An in-flight map keyed by PairKey gives every duplicate
//     submission the same shared_future -- N concurrent requests for one
//     pair cost one kernel computation.
//   * Per-pair jobs. A worker pops one queued job, combs it on its
//     persistent tls_workspace() (the zero-allocation steady state of
//     core/workspace.hpp), publishes it and resolves its promise before it
//     pops the next. Pairs are the parallel unit, as in
//     semi_local_kernel_batch: every idle worker takes the next pair, and no
//     caller waits for a neighbour's comb or persist.
//   * Backpressure. The queue is bounded; a submit that would exceed it
//     throws EngineOverloaded carrying a retry-after hint instead of letting
//     latency grow without bound.
//
// workers = 0 runs no threads; call drain() to execute queued jobs on the
// calling thread (deterministic tests, single-threaded stdio serving).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/api.hpp"
#include "engine/env.hpp"
#include "engine/kernel_store.hpp"
#include "engine/latency.hpp"

namespace semilocal {

/// Thrown by submit() when the pending queue is full. `retry_after_ms` is a
/// load-based hint for when the client should try again.
class EngineOverloaded : public std::runtime_error {
 public:
  EngineOverloaded(const std::string& what, Index retry_after_ms)
      : std::runtime_error(what), retry_after_ms_(retry_after_ms) {}

  [[nodiscard]] Index retry_after_ms() const { return retry_after_ms_; }

 private:
  Index retry_after_ms_;
};

struct SchedulerOptions {
  /// Worker threads. 0 = none; use drain().
  int workers = 2;
  /// Pending-job bound; submissions beyond it are rejected.
  std::size_t max_queue = 256;
  /// Per-pair compute configuration (`parallel` is forced off: pairs are
  /// the parallel unit, one pair per worker thread at a time).
  SemiLocalOptions compute;
  /// Clock source for latency samples. nullptr = real_env().
  Env* env = nullptr;
};

struct SchedulerStats {
  std::uint64_t submitted = 0;  ///< jobs accepted (incl. coalesced + fast-path)
  std::uint64_t coalesced = 0;  ///< duplicates attached to an in-flight job
  std::uint64_t computed = 0;   ///< kernels actually computed
  std::uint64_t batches = 0;    ///< single-pair compute runs (one per popped job)
  std::uint64_t rejected = 0;   ///< submissions refused by backpressure
  std::size_t queue_depth = 0;  ///< jobs currently queued
  std::size_t inflight = 0;     ///< distinct pairs queued or being computed
};

class KernelScheduler {
 public:
  /// `latency` (optional) receives one sample per computed job, measured
  /// submit-to-completion. Store results are published via `store.put`.
  /// Workers never build a QueryIndex: the first window query builds it
  /// (CachedKernel::index), and a kLcs answers from the entry's cached score.
  KernelScheduler(KernelStore& store, SchedulerOptions options,
                  LatencyRecorder* latency = nullptr);
  ~KernelScheduler();
  KernelScheduler(const KernelScheduler&) = delete;
  KernelScheduler& operator=(const KernelScheduler&) = delete;

  /// Schedules the kernel of (a, b). Returns immediately with a future that
  /// resolves when a worker (or drain()) computes the pair -- or an
  /// already-ready future if the pair is in the store or in flight.
  /// Throws EngineOverloaded when the queue is full.
  std::shared_future<CachedKernelPtr> submit(const PairKey& key, Sequence a, Sequence b);

  /// Runs queued jobs on the calling thread until the queue is empty.
  /// Returns the number of jobs executed.
  std::size_t drain();

  [[nodiscard]] SchedulerStats stats() const;

 private:
  struct Job {
    PairKey key;
    Sequence a;
    Sequence b;
    std::promise<CachedKernelPtr> promise;
    std::uint64_t queued_ns = 0;  // env clock at submission; read at completion
  };
  using JobPtr = std::shared_ptr<Job>;

  void worker_loop();
  /// Pops and computes one job. `lock` is held on entry and exit, released
  /// during compute. Returns false if the queue was empty.
  bool run_one_job(std::unique_lock<std::mutex>& lock);

  KernelStore& store_;
  SchedulerOptions options_;
  Env* env_;
  LatencyRecorder* latency_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<JobPtr> queue_;
  std::unordered_map<PairKey, std::shared_future<CachedKernelPtr>, PairKeyHash> inflight_;
  std::uint64_t submitted_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t computed_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t rejected_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace semilocal
