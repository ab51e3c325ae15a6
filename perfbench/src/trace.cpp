#include "trace.hpp"

#include <algorithm>
#include <atomic>

#include "common.hpp"

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_epoch{0};

/// The calling thread's buffer for the tracer of `epoch` (one tracer is
/// live at a time; a new epoch makes every thread register afresh).
struct LocalSlot {
  std::uint64_t epoch = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot t_slot;

}  // namespace

Tracer::Tracer() : epoch_(g_epoch.fetch_add(1) + 1) {}

Tracer::ThreadBuffer& Tracer::local() {
  if (t_slot.epoch != epoch_) {
    std::lock_guard lock(mutex_);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->thread = static_cast<std::uint32_t>(buffers_.size());
    buffer->spans.reserve(1 << 14);
    t_slot = LocalSlot{epoch_, buffer.get()};
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<ThreadBuffer*>(t_slot.buffer);
}

std::vector<SpanRecord> Tracer::collect() const {
  std::lock_guard lock(mutex_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    const auto offset = static_cast<std::int64_t>(all.size());
    for (SpanRecord span : buffer->spans) {
      if (span.parent >= 0) span.parent += offset;
      all.push_back(span);
    }
  }
  return all;
}

Span::Span(Tracer* tracer, const char* name, std::uint64_t request) {
  if (tracer == nullptr) return;
  buffer_ = &tracer->local();
  index_ = buffer_->spans.size();
  SpanRecord record;
  record.request = request;
  record.name = name;
  record.parent = buffer_->open.empty() ? -1 : buffer_->open.back();
  record.thread = buffer_->thread;
  record.start_ns = mono_ns();
  buffer_->spans.push_back(record);
  buffer_->open.push_back(static_cast<std::int64_t>(index_));
}

Span::~Span() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns = mono_ns();
  buffer_->open.pop_back();
}

TraceAnalysis analyse(std::vector<SpanRecord> all) {
  // Request id 0 marks traffic outside the timed stream (prewarm, probes).
  std::vector<SpanRecord> spans;
  std::vector<std::int64_t> renumber(all.size(), -1);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].request == 0) continue;
    renumber[i] = static_cast<std::int64_t>(spans.size());
    spans.push_back(all[i]);
  }
  for (SpanRecord& span : spans) {
    if (span.parent >= 0) span.parent = renumber[static_cast<std::size_t>(span.parent)];
  }

  // Cross-thread causality: a backend's dispatch span has no parent on its
  // own thread; its cause is the router span of the same request that
  // encloses it in time.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_request;
  for (std::size_t i = 0; i < spans.size(); ++i) by_request[spans[i].request].push_back(i);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanRecord& span = spans[i];
    if (span.parent >= 0) continue;
    std::int64_t best = -1;
    for (const std::size_t j : by_request[span.request]) {
      const SpanRecord& other = spans[j];
      if (j == i || other.thread == span.thread) continue;
      if (other.start_ns > span.start_ns || other.end_ns < span.end_ns) continue;
      if (best < 0 || other.start_ns > spans[static_cast<std::size_t>(best)].start_ns) {
        best = static_cast<std::int64_t>(j);
      }
    }
    span.parent = best;
  }

  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
  }
  TraceAnalysis out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    for (const std::size_t c : children[i]) {
      const std::uint64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const std::uint64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t child_ns = 0;
    std::uint64_t reach = 0;
    for (const auto& [lo, hi] : covered) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) child_ns += hi - from;
      reach = std::max(reach, hi);
    }
    const double duration_us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    SpanSummary& summary = out.by_name[span.name];
    summary.duration_us.push_back(duration_us);
    summary.self_us.push_back(duration_us - static_cast<double>(child_ns) / 1e3);
    summary.requests.push_back(span.request);
    if (span.parent < 0) {
      double& root = out.root_us[span.request];
      root = std::max(root, duration_us);
    }
  }
  return out;
}

}  // namespace perfbench
