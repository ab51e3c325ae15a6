// In-memory span recorder for the traced run.
//
// The benchmark's traced dispatcher wraps each call into a public layer
// function (make_pair_key, KernelStore::find, ComparisonEngine::answer, ...)
// in a Span. Spans are kept per thread in memory -- no lock on the record
// path after a thread's first span -- and collected once the run has ended.
// Every span carries the request id the client stamped into the frame, so
// all spans of one request group together even across the router hop, where
// the backend's spans run on another thread than the router span that
// caused them; analyse() links those by id and time containment.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t request = 0;  ///< request id shared by all spans of a request
  const char* name = "";      ///< "<layer>.<call>", a string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index of the causing span, -1 for a root
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Every span recorded so far, parents resolved to indexes into the
  /// result. Call only once the traced threads have stopped recording.
  [[nodiscard]] std::vector<SpanRecord> collect() const;

 private:
  friend class Span;
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::int64_t> open;  ///< stack of open span indexes
  };
  ThreadBuffer& local();

  std::uint64_t epoch_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: recorded from construction to destruction on the calling
/// thread. A null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t request);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadBuffer* buffer_ = nullptr;
  std::size_t index_ = 0;
};

/// Per span name: how many, their durations and their self times (duration
/// minus the part of it that child spans cover), in microseconds.
struct SpanSummary {
  std::vector<double> duration_us;
  std::vector<double> self_us;
  std::vector<std::uint64_t> requests;  ///< request id of each span
};

struct TraceAnalysis {
  std::map<std::string, SpanSummary> by_name;
  /// Duration of each request's outermost span, keyed by request id.
  std::unordered_map<std::uint64_t, double> root_us;
};

/// Drops spans of request id 0 (traffic outside the timed stream), links
/// parentless spans to the innermost span of the same request on another
/// thread that contains them, then computes self times.
TraceAnalysis analyse(std::vector<SpanRecord> spans);

}  // namespace perfbench
