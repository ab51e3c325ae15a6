// The request dispatcher: op -> engine call -> response, written once.
//
// Every transport -- the epoll reactor (engine/frontend.hpp), the stdio
// session (serve_stream) and the tests -- hands decoded requests to a
// Service, in two steps so an event loop never blocks:
//
//   admit(request)   never blocks. Answers now (control ops, warm reads off a
//                    cached entry) or returns a Continuation, the blocking
//                    half (wait for a cold compute, build a pair's first
//                    QueryIndex, comb an upsert), for a thread that may
//                    block. A cold compute is submitted here, once -- so on
//                    the event loop, never from a pump.
//   stream(request)  serves kAlignmentPlot, the one multi-frame op.
//
// handle(request) = admit + the continuation in place: the blocking form.
// EngineService is the engine's Service; the shard router plugs into the
// reactor through FrontendOptions::handler instead.
#pragma once

#include <atomic>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "engine/protocol.hpp"
#include "engine/scheduler.hpp"

namespace semilocal {

class ComparisonEngine;
class CorpusManager;

/// Ships one frame of a streamed answer; false = stop (client gone).
using TileSink = std::function<bool(Response&&)>;

/// Runs `answer` and turns what it throws into the matching response frame:
/// EngineOverloaded becomes RETRY_AFTER, anything else kError.
template <typename F>
Response guarded(F&& answer) {
  try {
    return answer();
  } catch (const EngineOverloaded& e) {
    return overloaded_response(e.retry_after_ms(), e.what());
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

/// The blocking half of an admitted request, move-only. Never throws; returns
/// nullopt only when `stop` rose while it waited (the transport is shutting
/// down and abandons the request).
class Continuation {
 public:
  Continuation() = default;
  template <typename F>
  explicit Continuation(F run) : impl_(std::make_unique<Model<F>>(std::move(run))) {}

  explicit operator bool() const { return impl_ != nullptr; }
  std::optional<Response> operator()(const std::atomic<bool>& stop) { return (*impl_)(stop); }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual std::optional<Response> operator()(const std::atomic<bool>& stop) = 0;
  };
  template <typename F>
  struct Model final : Concept {
    explicit Model(F f) : run(std::move(f)) {}
    std::optional<Response> operator()(const std::atomic<bool>& stop) override { return run(stop); }
    F run;
  };
  std::unique_ptr<Concept> impl_;
};

/// Service::admit's verdict on one request.
struct Admission {
  enum class Kind : std::uint8_t {
    kReply,    ///< answered now, not as served work: a control op, or a
               ///< submit the engine refused (overload, bad request)
    kAnswer,   ///< answered now off warm state -- a transport's inline answer
    kDefer,    ///< answered by `later` on a thread that may block
    kRefused,  ///< work refused: the caller had no in-flight budget left
  };
  Kind kind = Kind::kRefused;
  Response response;   ///< kReply, kAnswer
  Continuation later;  ///< kDefer

  static Admission reply(Response response) { return {Kind::kReply, std::move(response), {}}; }
  static Admission answer(Response response) { return {Kind::kAnswer, std::move(response), {}}; }
  static Admission defer(Continuation later) { return {Kind::kDefer, {}, std::move(later)}; }
};

class Service {
 public:
  virtual ~Service() = default;

  /// Non-blocking first step (see the file comment). `has_budget` false means
  /// the caller cannot park more work: control ops still answer, everything
  /// else comes back kRefused without touching the engine. `request` may be
  /// rewritten in place (DNA packing) and is moved from only into a
  /// continuation: an answer now leaves its buffers to the caller, which
  /// frees them after the answer is on the wire.
  virtual Admission admit(Request&& request, bool has_budget) = 0;

  /// Streams a kAlignmentPlot answer: tile frames, then a terminal frame
  /// (the `last` tile, or one non-kOk frame). Stops once `sink` returns
  /// false. Never throws.
  virtual void stream(const Request& request, const TileSink& sink) = 0;

  /// admit, then the continuation on this thread: one response, blocking.
  Response handle(Request request);
};

class EngineService final : public Service {
 public:
  /// `corpus` nullptr: upserts answer kError. `dna`: pack request bytes as
  /// DNA before hashing (match CLI precompute keys). `drain_inline`: run
  /// queued compute on the waiting thread (workers = 0 engines).
  explicit EngineService(ComparisonEngine& engine, CorpusManager* corpus = nullptr,
                         bool dna = false, bool drain_inline = false)
      : engine_(engine), corpus_(corpus), dna_(dna), drain_inline_(drain_inline) {}

  Admission admit(Request&& request, bool has_budget) override;
  void stream(const Request& request, const TileSink& sink) override;

 private:
  ComparisonEngine& engine_;
  CorpusManager* corpus_;
  bool dna_;
  bool drain_inline_;
};

/// One blocking session over a stream pair (semilocal_serve --stdio): frames
/// in, frames out, until a clean EOF between frames. A framing error answers
/// one kError frame and ends the session; a well-framed but undecodable
/// request answers kError and the session goes on.
void serve_stream(Service& service, std::istream& in, std::ostream& out);

}  // namespace semilocal
