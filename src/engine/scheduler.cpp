#include "engine/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "core/workspace.hpp"

namespace semilocal {
namespace {

std::shared_future<CachedKernelPtr> ready_future(CachedKernelPtr entry) {
  std::promise<CachedKernelPtr> promise;
  promise.set_value(std::move(entry));
  return promise.get_future().share();
}

}  // namespace

KernelScheduler::KernelScheduler(KernelStore& store, SchedulerOptions options,
                                 LatencyRecorder* latency)
    : store_(store),
      options_(std::move(options)),
      env_(options_.env ? options_.env : &real_env()),
      latency_(latency) {
  threads_.reserve(static_cast<std::size_t>(std::max(0, options_.workers)));
  for (int i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

KernelScheduler::~KernelScheduler() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::shared_future<CachedKernelPtr> KernelScheduler::submit(const PairKey& key,
                                                            Sequence a, Sequence b) {
  std::unique_lock lock(mutex_);
  ++submitted_;
  // Duplicate of an in-flight pair: attach to the existing computation.
  if (const auto it = inflight_.find(key); it != inflight_.end()) {
    ++coalesced_;
    return it->second;
  }
  // A pair that completed between the caller's cache probe and this lock is
  // gone from inflight_ but present in the store; re-probe so it is never
  // recomputed. (Lock order scheduler -> store; the store never calls back.)
  if (CachedKernelPtr hit = store_.find(key)) return ready_future(std::move(hit));
  if (queue_.size() >= options_.max_queue) {
    ++rejected_;
    // Hint scales with how many jobs each worker has queued ahead of the
    // retrier: one millisecond per job (drain mode counts as one worker).
    const auto per_worker = static_cast<Index>(
        queue_.size() / static_cast<std::size_t>(std::max(1, options_.workers)));
    const Index retry_ms = per_worker + 1;
    throw EngineOverloaded("engine overloaded: " + std::to_string(queue_.size()) +
                               " jobs queued (limit " + std::to_string(options_.max_queue) +
                               ")",
                           retry_ms);
  }
  auto job = std::make_shared<Job>();
  job->key = key;
  job->a = std::move(a);
  job->b = std::move(b);
  job->queued_ns = env_->now_ns();
  auto future = job->promise.get_future().share();
  inflight_.emplace(key, future);
  queue_.push_back(std::move(job));
  lock.unlock();
  work_ready_.notify_one();
  return future;
}

void KernelScheduler::worker_loop() {
  std::unique_lock lock(mutex_);
  while (true) {
    work_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    run_one_job(lock);
  }
}

bool KernelScheduler::run_one_job(std::unique_lock<std::mutex>& lock) {
  if (queue_.empty()) return false;
  const JobPtr job = std::move(queue_.front());
  queue_.pop_front();
  ++batches_;
  lock.unlock();

  SemiLocalOptions per_pair = options_.compute;
  per_pair.parallel = false;  // pairs are the parallel unit, one per worker
  CachedKernelPtr entry;
  std::exception_ptr failure;
  try {
    entry = std::make_shared<const CachedKernel>(std::make_shared<const SemiLocalKernel>(
        semi_local_kernel(job->a, job->b, per_pair, &tls_workspace())));
  } catch (...) {
    failure = std::current_exception();
  }

  // Publish to the store before fulfilling the promise or clearing
  // inflight_, so no submit() window exists in which a finished pair is
  // found nowhere.
  if (entry) store_.put(job->key, entry);
  // Entries whose earlier persist failed get their retry here, piggybacked
  // on compute jobs so a recovered disk drains the pending set without a
  // dedicated timer thread.
  store_.retry_pending();

  // Settle the books before resolving the promise: a caller whose
  // future.get() has returned must observe the computation in stats().
  // (set_value under the lock is fine -- woken waiters merely block on
  // mutex_ until this job finishes bookkeeping.)
  lock.lock();
  inflight_.erase(job->key);
  if (failure) {
    job->promise.set_exception(failure);
    return true;
  }
  ++computed_;
  if (latency_) {
    latency_->record(static_cast<double>(env_->now_ns() - job->queued_ns) / 1e6);
  }
  job->promise.set_value(entry);
  return true;
}

std::size_t KernelScheduler::drain() {
  std::unique_lock lock(mutex_);
  std::size_t jobs = 0;
  while (run_one_job(lock)) ++jobs;
  return jobs;
}

SchedulerStats KernelScheduler::stats() const {
  std::lock_guard lock(mutex_);
  return SchedulerStats{.submitted = submitted_,
                        .coalesced = coalesced_,
                        .computed = computed_,
                        .batches = batches_,
                        .rejected = rejected_,
                        .queue_depth = queue_.size(),
                        .inflight = inflight_.size()};
}

}  // namespace semilocal
