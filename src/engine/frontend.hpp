// The serve frontend: an epoll reactor in front of a Service.
//
// The reactor is what lets one engine face tens of thousands of sockets:
// a single event-loop thread owns every connection (non-blocking accept /
// read / write through the Env fd seam), and an incremental FrameDecoder
// turns partial reads into protocol frames with zero copies on the
// contained-frame path. Each decoded request goes to a Service
// (engine/service.hpp) that answers it on the loop or hands back a
// continuation for a small pump pool, so no compute blocks the loop. The
// reactor keeps transport policy only: FIFO response order per connection,
// write-queue pacing, the frontend_* counters, and admission control, which
// is explicit and typed:
//
//   gate            verdict when exceeded
//   --------------  ------------------------------------------------------
//   max_connections accept, send one RETRY_AFTER frame, close (shed)
//   per-conn        RETRY_AFTER response for the request, connection lives
//    in-flight
//   scheduler       EngineOverloaded's retry hint forwarded as RETRY_AFTER
//    queue bound
//   write-queue cap connection closed (a peer that never reads is not a
//                   client, it is a memory leak)
//   idle timeout    connection closed (no bytes, no pending work)
//   read timeout    connection closed (a frame started but never finished
//                   -- the slow-loris shape)
//
// "RETRY_AFTER" is the wire's Status::kOverloaded response with a non-zero
// retry_ms: the client contract is "back off retry_ms, then resend". Nothing
// ever stalls silently -- every overload verdict is a frame or a close.
//
// All timeouts read the Env clock and all socket I/O goes through
// Env::fd_read/fd_write, so FaultyEnv can tear or fail any connection's
// bytes deterministically (tests drive the decoder's resume path this way).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "engine/engine.hpp"
#include "engine/protocol.hpp"
#include "engine/service.hpp"

namespace semilocal {

class CorpusManager;

struct FrontendOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks a free port (see port()).
  int port = 0;
  /// listen(2) backlog (was hardcoded to 64 before PR 7).
  int listen_backlog = 128;
  /// Admission gate: connections beyond this are shed with one RETRY_AFTER
  /// frame instead of being accepted.
  std::size_t max_connections = 10000;
  /// Per-connection budget of requests awaiting compute; the budget's
  /// overflow answer is RETRY_AFTER, not a stalled socket.
  std::size_t max_inflight_per_conn = 64;
  /// Cap on a connection's queued-but-unsent response bytes. A client that
  /// stops reading is disconnected when its queue passes this.
  std::size_t max_write_queue_bytes = std::size_t{1} << 20;
  /// Close a connection with no read bytes, no partial frame and no pending
  /// work for this long. 0 disables.
  std::uint64_t idle_timeout_ms = 60'000;
  /// Close a connection that started a frame but has not finished it within
  /// this window (slow-loris defense). 0 disables.
  std::uint64_t read_timeout_ms = 10'000;
  /// How long stop() waits for in-flight requests to answer and flush
  /// before hard-closing the stragglers.
  std::uint64_t drain_timeout_ms = 2'000;
  /// Threads that run deferred work: cold computes, first index builds,
  /// upserts, plot streams, handler calls. Warm (cache-hit) requests are
  /// answered inline on the event loop and never touch a pump.
  int pump_threads = 2;
  /// Engine mode: pack request bytes as DNA before hashing (CLI precompute keys).
  bool dna = false;
  /// Engine mode, workers == 0 engines: pumps call engine.drain() before
  /// waiting, so a reactor over a threadless scheduler still makes progress.
  bool drain_inline = false;
  /// Clock + socket-I/O seam. nullptr = real_env().
  Env* env = nullptr;
  /// Versioned corpus behind Op::kUpsert. nullptr = upserts answer kError
  /// ("no corpus attached"). Upserts always ride a pump ticket (they comb
  /// dirty chunks), so the per-connection in-flight budget and scheduler
  /// backpressure cover them like cold queries. Engine mode only; handler
  /// mode routes kUpsert to the handler like any other op.
  CorpusManager* corpus = nullptr;
  /// Handler mode: when set, the reactor serves this callable instead of an
  /// engine -- every decoded request rides a pump ticket and is answered by
  /// handler(request) (which may block on downstream I/O; that is what the
  /// pump pool is for). kStats is the one inline exception: the handler's
  /// JSON gets this frontend's frontend_* counters spliced in, same as an
  /// engine's. This is how the shard router reuses the reactor loop.
  std::function<Response(const Request&)> handler;
  /// Streaming twin of `handler` for multi-frame ops (Op::kAlignmentPlot):
  /// runs on a pump with a sink that ships one response frame per call. The
  /// callee must end the stream with a terminal frame (see
  /// terminal_response_frame) and stop when the sink returns false (client
  /// gone, stream cancelled). Handler mode only; when unset, plot requests
  /// answer kError. Engine mode streams plots natively and ignores this.
  std::function<void(const Request&, const TileSink&)> stream_handler;
};

/// Plain-value snapshot of the frontend counters (stats JSON: frontend_*).
struct FrontendStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t connections_shed = 0;    ///< refused by the max-connections gate
  std::uint64_t connections_closed = 0;  ///< closed for any reason (EOF included)
  std::uint64_t retry_after_sent = 0;    ///< kOverloaded frames sent (all gates)
  std::uint64_t frames_decoded = 0;      ///< request frames parsed
  std::uint64_t partial_frames = 0;      ///< frames assembled across >1 read
  std::uint64_t protocol_errors = 0;     ///< malformed frames / payloads
  std::uint64_t timeouts_idle = 0;
  std::uint64_t timeouts_read = 0;
  std::uint64_t write_queue_disconnects = 0;
  /// Served work, by where it was answered: inline on the event loop (warm
  /// reads, handler-mode kStats) or by a pump (cold reads, index builds,
  /// upserts, plots, handler calls). Engine-mode control ops count in neither.
  std::uint64_t inline_answers = 0;
  std::uint64_t pump_answers = 0;
};

/// stats_json() with the frontend_* counters appended -- what the kStats op
/// returns when served through a frontend.
std::string stats_json(const EngineStats& stats, const FrontendStats& frontend);

/// The epoll reactor frontend. Construction binds and listens (throws
/// std::runtime_error on failure); run() executes the event loop on the
/// calling thread until request_stop().
class FrontendServer {
 public:
  /// Engine mode: serves an EngineService over `engine` and options.corpus
  /// (with options.dna / options.drain_inline).
  FrontendServer(ComparisonEngine& engine, FrontendOptions options);
  /// Engine-less handler mode (options.handler must be set; throws
  /// std::invalid_argument otherwise). The shard router's frontend.
  explicit FrontendServer(FrontendOptions options);
  ~FrontendServer();
  FrontendServer(const FrontendServer&) = delete;
  FrontendServer& operator=(const FrontendServer&) = delete;

  /// The bound port (useful with options.port = 0).
  [[nodiscard]] int port() const;

  /// Runs the event loop until request_stop(). Drains gracefully: stops
  /// accepting, answers in-flight requests, flushes write queues, then
  /// hard-closes whatever outlives drain_timeout_ms.
  void run();

  /// Requests shutdown. Async-signal-safe (one write(2) to a wake pipe), so
  /// a SIGINT handler may call it directly.
  void request_stop();

  [[nodiscard]] FrontendStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace semilocal
