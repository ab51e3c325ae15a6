#include "engine/frontend.hpp"

#include "engine/corpus_version.hpp"
#include "engine/env.hpp"
#include "util/fasta.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

namespace semilocal {
namespace {

// ---------------------------------------------------------------------------
// Shared plumbing (both frontends).

/// Atomic twins of FrontendStats, written from the event loop, the pumps and
/// the session threads, read by any stats() caller.
struct Counters {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> active{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> retry_after{0};
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> partial_frames{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> timeouts_idle{0};
  std::atomic<std::uint64_t> timeouts_read{0};
  std::atomic<std::uint64_t> write_queue_disconnects{0};
  std::atomic<std::uint64_t> inline_answers{0};
  std::atomic<std::uint64_t> pump_answers{0};

  [[nodiscard]] FrontendStats snapshot() const {
    FrontendStats s;
    s.connections_accepted = accepted.load(std::memory_order_relaxed);
    s.connections_active = active.load(std::memory_order_relaxed);
    s.connections_shed = shed.load(std::memory_order_relaxed);
    s.connections_closed = closed.load(std::memory_order_relaxed);
    s.retry_after_sent = retry_after.load(std::memory_order_relaxed);
    s.frames_decoded = frames.load(std::memory_order_relaxed);
    s.partial_frames = partial_frames.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors.load(std::memory_order_relaxed);
    s.timeouts_idle = timeouts_idle.load(std::memory_order_relaxed);
    s.timeouts_read = timeouts_read.load(std::memory_order_relaxed);
    s.write_queue_disconnects =
        write_queue_disconnects.load(std::memory_order_relaxed);
    s.inline_answers = inline_answers.load(std::memory_order_relaxed);
    s.pump_answers = pump_answers.load(std::memory_order_relaxed);
    return s;
  }
};

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Serving 10k+ sockets needs 10k+ fds; lift the soft limit to the hard one
/// once per process so the default 1024 does not masquerade as load shedding.
void raise_fd_limit() {
  static const bool done = [] {
    rlimit lim{};
    if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
      lim.rlim_cur = lim.rlim_max;
      (void)::setrlimit(RLIMIT_NOFILE, &lim);
    }
    return true;
  }();
  (void)done;
}

/// Binds a loopback listener; returns {fd, bound port}.
std::pair<int, int> make_listener(int port, int backlog, bool non_blocking) {
  const int type = SOCK_STREAM | SOCK_CLOEXEC | (non_blocking ? SOCK_NONBLOCK : 0);
  const int fd = ::socket(AF_INET, type, 0);
  if (fd < 0) throw_errno("frontend: socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("frontend: bind/listen");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return {fd, static_cast<int>(ntohs(addr.sin_port))};
}

Sequence ingest(bool dna, Sequence raw) { return dna ? pack_dna(raw) : std::move(raw); }

QueryKind kind_of(Op op) {
  switch (op) {
    case Op::kLcs:
      return QueryKind::kLcs;
    case Op::kStringSubstring:
      return QueryKind::kStringSubstring;
    case Op::kSubstringString:
      return QueryKind::kSubstringString;
    default:
      throw std::invalid_argument("op carries no query kind");
  }
}

Response overloaded_response(Index retry_ms, const std::string& text) {
  Response response;
  response.status = Status::kOverloaded;
  response.retry_ms = std::max<Index>(1, retry_ms);
  response.text = text;
  return response;
}

Response error_response(const std::string& text) {
  Response response;
  response.status = Status::kError;
  response.text = text;
  return response;
}

/// Answers a query request off an acquired entry. Exceptions (bad windows,
/// out-of-range coordinates) become kError responses at the caller.
Response answer_with_entry(ComparisonEngine& engine, const CachedKernel& entry,
                           const Request& request) {
  Response response;
  if (request.op == Op::kBatchQuery) {
    response.values = engine.answer_batch(entry, request.windows);
    response.value = static_cast<Index>(response.values.size());
  } else {
    response.value = engine.answer(entry, kind_of(request.op), request.x, request.y);
  }
  return response;
}

/// Splices the frontend_* counters into a flat JSON object (engine stats or
/// a handler's own stats document -- both end with '}').
void append_frontend_fields(std::string& out, const FrontendStats& f) {
  out.pop_back();  // reopen the object
  const auto field = [&out](const char* name, std::uint64_t value) {
    out += ", \"";
    out += name;
    out += "\": ";
    out += std::to_string(value);
  };
  field("frontend_connections", f.connections_accepted);
  field("frontend_active", f.connections_active);
  field("frontend_shed", f.connections_shed);
  field("frontend_closed", f.connections_closed);
  field("frontend_retry_after_sent", f.retry_after_sent);
  field("frontend_frames", f.frames_decoded);
  field("frontend_partial_frames", f.partial_frames);
  field("frontend_protocol_errors", f.protocol_errors);
  field("frontend_timeouts_idle", f.timeouts_idle);
  field("frontend_timeouts_read", f.timeouts_read);
  field("frontend_write_queue_disconnects", f.write_queue_disconnects);
  field("frontend_inline_answers", f.inline_answers);
  field("frontend_pump_answers", f.pump_answers);
  out += "}";
}

}  // namespace

std::string stats_json(const EngineStats& stats, const FrontendStats& f) {
  std::string out = stats_json(stats);
  append_frontend_fields(out, f);
  return out;
}

// ---------------------------------------------------------------------------
// FrontendServer: the epoll reactor.

struct FrontendServer::Impl {
  // epoll_event.data.u64 tags; connection ids start above the sentinels.
  static constexpr std::uint64_t kListenerTag = 1;
  static constexpr std::uint64_t kStopTag = 2;
  static constexpr std::uint64_t kCompletionTag = 3;
  static constexpr std::uint64_t kFirstConnId = 16;

  /// One response slot, in request order. Responses flush strictly FIFO per
  /// connection, so a fast cache hit never overtakes a cold compute that
  /// arrived first on the same socket. A streaming op (kAlignmentPlot) lands
  /// several completions in one slot: each tile's bytes flush as they arrive,
  /// but the slot retires only once its terminal frame has been queued.
  struct Pending {
    std::uint64_t seq = 0;
    bool done = false;  // terminal frame received; slot retires once flushed
    std::string bytes;  // framed bytes not yet moved into the flush buffer
  };

  /// Hand-off between a streaming pump and the event loop: the pump posts a
  /// tile completion carrying this gate, then blocks until the loop grants
  /// the next tile (write queue drained below the watermark) or cancels
  /// (connection gone, shutdown). This is how a million-cell plot streams
  /// through a bounded write queue without the pump racing ahead of the
  /// socket.
  struct StreamGate {
    std::mutex mutex;
    std::condition_variable cv;
    bool proceed = false;
    bool cancel = false;
  };

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::string label;  // "conn:<id>" -- the Env fault-rule path
    FrameDecoder decoder;
    std::deque<Pending> pending;
    std::size_t pending_ready_bytes = 0;  // framed bytes parked behind a gap
    std::string out;                      // flush buffer (FIFO head of pending)
    std::size_t out_off = 0;
    std::size_t inflight = 0;  // slots awaiting a pump completion
    std::uint64_t next_seq = 0;
    std::uint64_t last_read_ns = 0;
    std::uint64_t frame_start_ns = 0;  // != 0 while a partial frame pends
    bool want_write = false;
    bool close_after_flush = false;
    /// Set on ProtocolError: the decoder is poisoned (no frame boundary to
    /// resynchronize on), so this socket must never be read again -- further
    /// bytes would re-parse misaligned as bogus frames, and the responses
    /// they generate would postpone the close_after_flush close forever.
    bool read_closed = false;
    /// Set by close_conn. The Conn object itself outlives the close until
    /// the end of the event-loop iteration (see graveyard): a handler that
    /// closes a connection from inside FrameDecoder::feed must not free the
    /// decoder that is still executing under its feet.
    bool dead = false;
    /// Streams paced by this loop: gates park here when the write queue sits
    /// above the watermark, and flush grants them once it drains.
    /// stream_parked_ns is when the oldest still-parked gate stalled -- a
    /// peer that never drains its socket trips the read-timeout clock on it.
    std::vector<std::shared_ptr<StreamGate>> parked_gates;
    std::uint64_t stream_parked_ns = 0;
  };

  /// A cold request parked on a scheduler future, waiting for a pump.
  struct Ticket {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::shared_future<CachedKernelPtr> future;
    Request request;
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string bytes;  // framed response (one stream frame for plots)
    bool done = true;   // terminal: the slot may retire once flushed
    std::shared_ptr<StreamGate> gate;  // non-null while the stream pends
  };

  ComparisonEngine* engine;  ///< nullptr in handler mode
  FrontendOptions options;
  Env* env;
  Counters counters;

  int listener = -1;
  int bound_port = 0;
  int epoll_fd = -1;
  int stop_fd = -1;        // eventfd; request_stop() writes it (signal-safe)
  int completion_fd = -1;  // eventfd; pumps ring it after posting

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  /// Closed conns parked until the current event-loop iteration ends, so
  /// references held by in-progress handlers stay valid.
  std::vector<std::unique_ptr<Conn>> graveyard;
  std::uint64_t next_conn_id = kFirstConnId;

  std::mutex pump_mutex;
  std::condition_variable pump_ready;
  std::deque<Ticket> pump_queue;
  bool pump_stop = false;
  std::atomic<bool> hard_stop{false};
  std::vector<std::thread> pumps;

  std::mutex completion_mutex;
  std::vector<Completion> completions;

  bool draining = false;
  std::uint64_t drain_deadline_ns = 0;

  Impl(ComparisonEngine* eng, FrontendOptions opts)
      : engine(eng), options(std::move(opts)), env(options.env ? options.env : &real_env()) {
    if (engine == nullptr && !options.handler) {
      throw std::invalid_argument("frontend: handler mode requires a handler");
    }
    raise_fd_limit();
    auto [fd, port] = make_listener(options.port, options.listen_backlog,
                                    /*non_blocking=*/true);
    listener = fd;
    bound_port = port;
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    stop_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    completion_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (epoll_fd < 0 || stop_fd < 0 || completion_fd < 0) {
      const int err = errno;
      close_fds();
      errno = err;
      throw_errno("frontend: epoll/eventfd");
    }
    try {
      watch(listener, kListenerTag, EPOLLIN);
      watch(stop_fd, kStopTag, EPOLLIN);
      watch(completion_fd, kCompletionTag, EPOLLIN);
    } catch (...) {
      // ~Impl never runs for a partially constructed object; sweep the four
      // live descriptors here or they leak.
      close_fds();
      throw;
    }
  }

  ~Impl() { close_fds(); }

  void close_fds() {
    for (auto& [id, conn] : conns) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    conns.clear();
    for (int* fd : {&listener, &epoll_fd, &stop_fd, &completion_fd}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
  }

  void watch(int fd, std::uint64_t tag, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = tag;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      throw_errno("frontend: epoll_ctl add");
    }
  }

  void rearm(Conn& conn, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = conn.id;
    (void)::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  [[nodiscard]] std::uint64_t now_ms() { return env->now_ns() / 1'000'000; }

  /// EPOLLIN interest for a connection: none while draining or once its
  /// decoder is poisoned (read_closed).
  [[nodiscard]] std::uint32_t read_interest(const Conn& conn) const {
    return (draining || conn.read_closed) ? 0u : static_cast<std::uint32_t>(EPOLLIN);
  }

  // -- connection lifecycle -------------------------------------------------

  void accept_ready() {
    while (true) {
      const int fd = ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        return;  // transient accept errors: the listener event will re-fire
      }
      const int nodelay = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
      if (conns.size() >= options.max_connections) {
        // The admission gate: the peer gets one typed RETRY_AFTER frame and
        // a close, never a connection that silently goes nowhere.
        shed(fd);
        continue;
      }
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->id = next_conn_id++;
      conn->label = "conn:" + std::to_string(conn->id);
      conn->last_read_ns = env->now_ns();
      watch(fd, conn->id, EPOLLIN);
      counters.accepted.fetch_add(1, std::memory_order_relaxed);
      counters.active.fetch_add(1, std::memory_order_relaxed);
      conns.emplace(conn->id, std::move(conn));
    }
  }

  void shed(int fd) {
    counters.shed.fetch_add(1, std::memory_order_relaxed);
    const std::string frame = frame_payload(encode_response(overloaded_response(
        options.admission_retry_ms, "connection limit reached")));
    // Best effort: a fresh socket's send buffer always holds one small frame.
    (void)env->fd_write(fd, frame.data(), frame.size(), "conn:shed");
    counters.retry_after.fetch_add(1, std::memory_order_relaxed);
    ::close(fd);
  }

  static void gate_signal(StreamGate& gate, bool cancel) {
    {
      std::lock_guard lock(gate.mutex);
      (cancel ? gate.cancel : gate.proceed) = true;
    }
    gate.cv.notify_all();
  }

  [[nodiscard]] static std::size_t queued_bytes(const Conn& conn) {
    return (conn.out.size() - conn.out_off) + conn.pending_ready_bytes;
  }

  /// Streams pause once a connection's queued bytes pass this and resume
  /// when flush drains back under it; half the cap leaves room for one more
  /// tile frame without tripping the disconnect cap.
  [[nodiscard]] std::size_t stream_watermark() const {
    return options.max_write_queue_bytes / 2;
  }

  void close_conn(std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    Conn& conn = *it->second;
    conn.dead = true;
    for (const auto& gate : conn.parked_gates) gate_signal(*gate, /*cancel=*/true);
    conn.parked_gates.clear();
    ::close(conn.fd);  // EPOLL_CTL_DEL is implicit in close(2)
    conn.fd = -1;
    graveyard.push_back(std::move(it->second));  // freed after this iteration
    conns.erase(it);
    counters.active.fetch_sub(1, std::memory_order_relaxed);
    counters.closed.fetch_add(1, std::memory_order_relaxed);
  }

  // -- read path ------------------------------------------------------------

  void read_ready(Conn& conn) {
    if (conn.read_closed) return;
    char buf[1 << 16];
    const long n = env->fd_read(conn.fd, buf, sizeof(buf), conn.label);
    if (n == 0) {  // peer hung up
      close_conn(conn.id);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_conn(conn.id);  // injected EIO or a real connection error
      return;
    }
    conn.last_read_ns = env->now_ns();
    try {
      conn.decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                        [&](std::string_view payload, bool spanned) {
                          if (conn.dead) return;  // closed by an earlier frame
                          counters.frames.fetch_add(1, std::memory_order_relaxed);
                          if (spanned) {
                            counters.partial_frames.fetch_add(
                                1, std::memory_order_relaxed);
                          }
                          on_frame(conn, payload);
                        });
    } catch (const ProtocolError& e) {
      // The stream is unframed from here on; report and hang up.
      counters.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      if (!conn.dead) {
        conn.read_closed = true;
        conn.close_after_flush = true;
        push_response(conn, error_response(e.what()));  // flushes internally
        // flush rearms only on want_write edges; drop EPOLLIN unconditionally
        // so a hostile sender cannot keep the poisoned stream alive.
        if (!conn.dead) {
          rearm(conn, conn.want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
        }
      }
      return;
    }
    // Arm or clear the slow-loris clock.
    if (!conn.dead) {
      conn.frame_start_ns = conn.decoder.mid_frame()
                                ? (conn.frame_start_ns != 0 ? conn.frame_start_ns
                                                            : env->now_ns())
                                : 0;
    }
  }

  /// One decoded request frame. Admission verdicts are issued here; accepted
  /// cold requests park on a pump ticket.
  void on_frame(Conn& conn, std::string_view payload) {
    if (conn.dead) return;
    Request request;
    try {
      request = decode_request(payload);
    } catch (const ProtocolError& e) {
      counters.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      push_response(conn, error_response(e.what()));
      return;
    }
    if (options.handler) {
      // Handler mode (the shard router): kStats answers inline with the
      // frontend counters spliced in; everything else -- including kPing,
      // whose answer asserts this process, not a backend, is alive -- rides
      // a pump ticket, because the handler may block on downstream sockets.
      if (request.op == Op::kStats) {
        Response response;
        try {
          response = options.handler(request);
        } catch (const std::exception& e) {
          response = error_response(e.what());
        }
        if (response.status == Status::kOk && !response.text.empty() &&
            response.text.back() == '}') {
          append_frontend_fields(response.text, counters.snapshot());
        }
        counters.inline_answers.fetch_add(1, std::memory_order_relaxed);
        push_response(conn, std::move(response));
        return;
      }
      if (conn.inflight >= options.max_inflight_per_conn) {
        counters.retry_after.fetch_add(1, std::memory_order_relaxed);
        push_response(conn, overloaded_response(options.admission_retry_ms,
                                                "per-connection in-flight limit"));
        return;
      }
      const std::uint64_t seq = conn.next_seq++;
      conn.pending.push_back(Pending{seq, false, {}});
      ++conn.inflight;
      {
        std::lock_guard lock(pump_mutex);
        pump_queue.push_back(Ticket{conn.id, seq, {}, std::move(request)});
      }
      pump_ready.notify_one();
      return;
    }
    switch (request.op) {
      case Op::kPing:
        push_response(conn, Response{});
        return;
      case Op::kStats: {
        Response response;
        response.text = stats_json(engine->stats(), counters.snapshot());
        push_response(conn, std::move(response));
        return;
      }
      case Op::kHealth: {
        Response response;
        response.text = health_json(engine->stats());
        push_response(conn, std::move(response));
        return;
      }
      case Op::kShardCtl:
        push_response(conn, error_response("shardctl: not a router"));
        return;
      default:
        break;
    }
    // Per-connection in-flight budget: a client may not park unbounded
    // compute on one socket. The verdict is typed, the connection lives.
    if (conn.inflight >= options.max_inflight_per_conn) {
      counters.retry_after.fetch_add(1, std::memory_order_relaxed);
      push_response(conn, overloaded_response(options.admission_retry_ms,
                                              "per-connection in-flight limit"));
      return;
    }
    if (request.op != Op::kUpsert) {
      // kUpsert's `a` carries the document id, never sequence data.
      request.a = ingest(options.dna, std::move(request.a));
    }
    request.b = ingest(options.dna, std::move(request.b));
    if (request.op == Op::kAlignmentPlot || request.op == Op::kUpsert) {
      // Plots always stream from a pump, never inline: even a fully warm
      // plot emits megabytes of tiles, and the pump's gate paces that
      // against this loop's write queue one tile at a time. Upserts comb
      // dirty chunks and compose braids -- milliseconds of compute that
      // must not block the event loop either.
      const std::uint64_t seq = conn.next_seq++;
      conn.pending.push_back(Pending{seq, false, {}});
      ++conn.inflight;
      {
        std::lock_guard lock(pump_mutex);
        pump_queue.push_back(Ticket{conn.id, seq, {}, std::move(request)});
      }
      pump_ready.notify_one();
      return;
    }
    std::shared_future<CachedKernelPtr> future;
    try {
      future = engine->entry_async(request.a, request.b);
    } catch (const EngineOverloaded& e) {
      // Scheduler backpressure: forward the retry hint as a typed frame.
      counters.retry_after.fetch_add(1, std::memory_order_relaxed);
      push_response(conn, overloaded_response(e.retry_after_ms(), e.what()));
      return;
    } catch (const std::exception& e) {
      push_response(conn, error_response(e.what()));
      return;
    }
    if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      // Warm path: answer on the event loop, no pump hop. Queries off a
      // cached entry are O(log n) descents -- microseconds, not stalls. A
      // pair's first window query must build its QueryIndex first, though:
      // that build goes to a pump like a cold compute.
      Response response;
      bool builds_index = false;
      try {
        const CachedKernel& entry = *future.get();
        builds_index = query_builds_index(entry, engine->index_queries(),
                                          request.op != Op::kLcs);
        if (!builds_index) response = answer_with_entry(*engine, entry, request);
      } catch (const std::exception& e) {
        response = error_response(e.what());
      }
      if (!builds_index) {
        counters.inline_answers.fetch_add(1, std::memory_order_relaxed);
        push_response(conn, std::move(response));
        return;
      }
    }
    const std::uint64_t seq = conn.next_seq++;
    conn.pending.push_back(Pending{seq, false, {}});
    ++conn.inflight;
    {
      std::lock_guard lock(pump_mutex);
      pump_queue.push_back(Ticket{conn.id, seq, std::move(future), std::move(request)});
    }
    pump_ready.notify_one();
  }

  /// Queues a ready response in request order and flushes what it unblocks.
  void push_response(Conn& conn, Response response) {
    if (conn.dead) return;
    const std::uint64_t seq = conn.next_seq++;
    std::string bytes = frame_payload(encode_response(response));
    conn.pending.push_back(Pending{seq, true, std::move(bytes)});
    conn.pending_ready_bytes += conn.pending.back().bytes.size();
    flush(conn);
  }

  // -- write path -----------------------------------------------------------

  /// Moves ready FIFO-head slots into the flush buffer, writes what the
  /// socket takes, enforces the write-queue cap, arms EPOLLOUT for the rest.
  void flush(Conn& conn) {
    if (conn.dead) return;
    while (!conn.pending.empty()) {
      Pending& head = conn.pending.front();
      if (!head.bytes.empty()) {
        conn.pending_ready_bytes -= head.bytes.size();
        conn.out += head.bytes;
        head.bytes.clear();
      }
      if (!head.done) break;  // a stream's flushed head still holds its slot
      conn.pending.pop_front();
    }
    while (conn.out_off < conn.out.size()) {
      const long w = env->fd_write(conn.fd, conn.out.data() + conn.out_off,
                                   conn.out.size() - conn.out_off, conn.label);
      if (w > 0) {
        conn.out_off += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      close_conn(conn.id);  // write error: the peer is gone
      return;
    }
    // Queued bytes are the unsent flush buffer plus framed responses parked
    // behind an unready slot. Past the cap, disconnect -- backpressure must
    // never become unbounded server memory. Checked before the drained-buffer
    // early return below: a cold compute holding the FIFO head parks every
    // later warm response in pending while out stays empty, and that shape
    // must be bounded exactly like a saturated socket.
    const std::size_t queued = queued_bytes(conn);
    if (queued > options.max_write_queue_bytes) {
      counters.write_queue_disconnects.fetch_add(1, std::memory_order_relaxed);
      close_conn(conn.id);
      return;
    }
    if (!conn.parked_gates.empty() && queued <= stream_watermark()) {
      // The socket drained: wake every stream paced on this connection.
      for (const auto& gate : conn.parked_gates) gate_signal(*gate, /*cancel=*/false);
      conn.parked_gates.clear();
      conn.stream_parked_ns = 0;
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
      if (conn.want_write) {
        conn.want_write = false;
        rearm(conn, read_interest(conn));
      }
      if (conn.close_after_flush && conn.pending.empty()) close_conn(conn.id);
      return;
    }
    if (!conn.want_write) {
      conn.want_write = true;
      rearm(conn, read_interest(conn) | EPOLLOUT);
    }
  }

  // -- pump pool (cold-path futures) ---------------------------------------

  void pump_loop() {
    while (true) {
      Ticket ticket;
      {
        std::unique_lock lock(pump_mutex);
        pump_ready.wait(lock, [this] { return pump_stop || !pump_queue.empty(); });
        if (pump_queue.empty()) {
          if (pump_stop) return;
          continue;
        }
        ticket = std::move(pump_queue.front());
        pump_queue.pop_front();
      }
      if (ticket.request.op == Op::kAlignmentPlot) {
        stream_ticket(ticket);
        continue;
      }
      if (ticket.request.op == Op::kUpsert && !options.handler) {
        // Upserts comb dirty chunks through the scheduler and publish a new
        // corpus generation; scheduler backpressure surfaces as the same
        // typed RETRY_AFTER a cold query would get.
        Response response;
        try {
          if (options.corpus == nullptr) {
            response = error_response("upsert: no corpus attached");
          } else {
            const UpsertReport report = options.corpus->upsert_document(
                to_string(ticket.request.a), std::move(ticket.request.b));
            response.value = report.version;
            response.text = report.json();
          }
        } catch (const EngineOverloaded& e) {
          response = overloaded_response(e.retry_after_ms(), e.what());
          counters.retry_after.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception& e) {
          response = error_response(e.what());
        }
        counters.pump_answers.fetch_add(1, std::memory_order_relaxed);
        post_completion(ticket, frame_payload(encode_response(response)),
                        /*done=*/true, nullptr);
        continue;
      }
      Response response;
      bool abandoned = false;
      try {
        if (options.handler) {
          response = options.handler(ticket.request);
        } else {
          if (options.drain_inline) engine->drain();
          while (ticket.future.wait_for(std::chrono::milliseconds(50)) !=
                 std::future_status::ready) {
            if (hard_stop.load(std::memory_order_relaxed)) {
              abandoned = true;
              break;
            }
            if (options.drain_inline) engine->drain();
          }
          if (!abandoned) {
            response = answer_with_entry(*engine, *ticket.future.get(), ticket.request);
          }
        }
      } catch (const EngineOverloaded& e) {
        response = overloaded_response(e.retry_after_ms(), e.what());
        counters.retry_after.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception& e) {
        response = error_response(e.what());
      }
      if (abandoned) continue;  // shutdown: the connection is being torn down
      counters.pump_answers.fetch_add(1, std::memory_order_relaxed);
      post_completion(ticket, frame_payload(encode_response(response)),
                      /*done=*/true, nullptr);
    }
  }

  void post_completion(const Ticket& ticket, std::string bytes, bool done,
                       std::shared_ptr<StreamGate> gate) {
    {
      std::lock_guard lock(completion_mutex);
      completions.push_back(
          Completion{ticket.conn_id, ticket.seq, std::move(bytes), done, std::move(gate)});
    }
    const std::uint64_t one = 1;
    (void)::write(completion_fd, &one, sizeof(one));
  }

  /// Streams a plot ticket: every tile posts as its own completion into the
  /// ticket's pending slot, and between tiles the pump blocks on a gate the
  /// event loop grants once the connection's write queue has drained below
  /// the watermark. The plot therefore crosses the reactor one bounded frame
  /// at a time -- the write-queue cap holds no matter how many cells the
  /// grid has.
  void stream_ticket(Ticket& ticket) {
    auto gate = std::make_shared<StreamGate>();
    bool cancelled = false;
    const auto post = [&](Response&& response) {
      const bool done = terminal_response_frame(response);
      std::string bytes;
      try {
        bytes = frame_payload(encode_response(response));
      } catch (const std::exception& e) {
        // An unencodable frame (stream-handler bug) still terminates the slot.
        cancelled = true;
        post_completion(ticket, frame_payload(encode_response(error_response(e.what()))),
                        /*done=*/true, nullptr);
        return false;
      }
      post_completion(ticket, std::move(bytes), done, done ? nullptr : gate);
      if (done) return true;
      std::unique_lock lock(gate->mutex);
      while (!gate->proceed && !gate->cancel) {
        if (hard_stop.load(std::memory_order_relaxed)) {
          cancelled = true;
          return false;
        }
        gate->cv.wait_for(lock, std::chrono::milliseconds(50));
      }
      if (gate->cancel) {
        cancelled = true;
        return false;
      }
      gate->proceed = false;
      return true;
    };
    try {
      if (options.handler) {
        if (options.stream_handler) {
          options.stream_handler(ticket.request,
                                 [&](Response&& r) { return post(std::move(r)); });
        } else {
          post(error_response("alignment plot: no stream handler"));
        }
      } else if (!ticket.request.plot) {
        post(error_response("plot request without a plot spec"));
      } else {
        if (options.drain_inline) engine->drain();
        engine->alignment_plot(
            ticket.request.a, ticket.request.b, *ticket.request.plot,
            [&](PlotTile&& tile) {
              Response r;
              r.tile = std::move(tile);
              return post(std::move(r));
            },
            options.drain_inline);
      }
    } catch (const EngineOverloaded& e) {
      counters.retry_after.fetch_add(1, std::memory_order_relaxed);
      if (!cancelled) post(overloaded_response(e.retry_after_ms(), e.what()));
    } catch (const std::exception& e) {
      if (!cancelled) post(error_response(e.what()));
    }
    counters.pump_answers.fetch_add(1, std::memory_order_relaxed);
  }

  void completions_ready() {
    std::uint64_t drainv = 0;
    (void)::read(completion_fd, &drainv, sizeof(drainv));
    std::vector<Completion> batch;
    {
      std::lock_guard lock(completion_mutex);
      batch.swap(completions);
    }
    for (Completion& c : batch) {
      const auto it = conns.find(c.conn_id);
      if (it == conns.end()) {  // connection died while computing
        if (c.gate) gate_signal(*c.gate, /*cancel=*/true);
        continue;
      }
      Conn& conn = *it->second;
      // Slots are contiguous seqs; index the deque directly. Stream frames
      // accumulate into their slot (flush drains the head's bytes even
      // before the slot is done).
      const std::uint64_t base = conn.pending.front().seq;
      Pending& slot = conn.pending[static_cast<std::size_t>(c.seq - base)];
      slot.bytes += c.bytes;
      conn.pending_ready_bytes += c.bytes.size();
      if (c.done) {
        slot.done = true;
        --conn.inflight;
      }
      flush(conn);
      if (c.gate) {
        // The pump is holding the next tile; grant it room now or park the
        // gate for flush to grant once the socket drains.
        const auto again = conns.find(c.conn_id);
        if (again == conns.end()) {
          gate_signal(*c.gate, /*cancel=*/true);
        } else if (queued_bytes(*again->second) <= stream_watermark()) {
          gate_signal(*c.gate, /*cancel=*/false);
        } else {
          Conn& live = *again->second;
          if (live.parked_gates.empty()) live.stream_parked_ns = env->now_ns();
          live.parked_gates.push_back(std::move(c.gate));
        }
      }
    }
  }

  // -- timeouts and drain ---------------------------------------------------

  void scan_timeouts() {
    if (options.idle_timeout_ms == 0 && options.read_timeout_ms == 0) return;
    const std::uint64_t now = env->now_ns();
    std::vector<std::uint64_t> doomed_idle;
    std::vector<std::uint64_t> doomed_read;
    std::vector<std::uint64_t> doomed_stall;
    for (const auto& [id, conn] : conns) {
      if (options.read_timeout_ms != 0 && conn->frame_start_ns != 0 &&
          now - conn->frame_start_ns > options.read_timeout_ms * 1'000'000) {
        doomed_read.push_back(id);
        continue;
      }
      // A paced stream parks below the disconnect cap, so a peer that stops
      // reading mid-plot never trips it; bound that stall with the
      // read-timeout clock instead.
      if (options.read_timeout_ms != 0 && conn->stream_parked_ns != 0 &&
          now - conn->stream_parked_ns > options.read_timeout_ms * 1'000'000) {
        doomed_stall.push_back(id);
        continue;
      }
      const bool idle = conn->pending.empty() && !conn->decoder.mid_frame() &&
                        conn->out_off == conn->out.size();
      if (options.idle_timeout_ms != 0 && idle &&
          now - conn->last_read_ns > options.idle_timeout_ms * 1'000'000) {
        doomed_idle.push_back(id);
      }
    }
    for (const std::uint64_t id : doomed_read) {
      counters.timeouts_read.fetch_add(1, std::memory_order_relaxed);
      close_conn(id);
    }
    for (const std::uint64_t id : doomed_stall) {
      counters.write_queue_disconnects.fetch_add(1, std::memory_order_relaxed);
      close_conn(id);
    }
    for (const std::uint64_t id : doomed_idle) {
      counters.timeouts_idle.fetch_add(1, std::memory_order_relaxed);
      close_conn(id);
    }
  }

  void begin_drain() {
    if (draining) return;
    draining = true;
    drain_deadline_ns = env->now_ns() + options.drain_timeout_ms * 1'000'000;
    ::close(listener);  // stop accepting; implicit EPOLL_CTL_DEL
    listener = -1;
    // Stop reading: in-flight requests finish, new bytes are ignored.
    for (const auto& [id, conn] : conns) {
      rearm(*conn, conn->want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
    }
  }

  /// True when drain has nothing left to wait for (or ran out of patience).
  bool drain_finished() {
    if (!draining) return false;
    std::vector<std::uint64_t> done;
    for (const auto& [id, conn] : conns) {
      if (conn->pending.empty() && conn->out_off == conn->out.size()) {
        done.push_back(id);
      }
    }
    for (const std::uint64_t id : done) close_conn(id);
    if (conns.empty()) return true;
    if (env->now_ns() >= drain_deadline_ns) {
      std::vector<std::uint64_t> rest;
      rest.reserve(conns.size());
      for (const auto& [id, conn] : conns) rest.push_back(id);
      for (const std::uint64_t id : rest) close_conn(id);
      return true;
    }
    return false;
  }

  // -- the loop -------------------------------------------------------------

  void run() {
    for (int p = 0; p < std::max(1, options.pump_threads); ++p) {
      pumps.emplace_back([this] { pump_loop(); });
    }
    epoll_event events[256];
    std::uint64_t last_scan_ns = env->now_ns();
    while (true) {
      const int timeout_ms = draining ? 10 : 20;
      const int n = ::epoll_wait(epoll_fd, events, 256, timeout_ms);
      if (n < 0 && errno != EINTR) break;
      for (int i = 0; i < n; ++i) {
        const std::uint64_t tag = events[i].data.u64;
        const std::uint32_t ev = events[i].events;
        if (tag == kListenerTag) {
          if (!draining) accept_ready();
          continue;
        }
        if (tag == kStopTag) {
          std::uint64_t v = 0;
          (void)::read(stop_fd, &v, sizeof(v));
          begin_drain();
          continue;
        }
        if (tag == kCompletionTag) {
          completions_ready();
          continue;
        }
        const auto it = conns.find(tag);
        if (it == conns.end()) continue;  // closed earlier in this batch
        Conn& conn = *it->second;
        if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
          close_conn(tag);
          continue;
        }
        if ((ev & EPOLLOUT) != 0) flush(conn);
        // flush may have closed the conn; re-check before reading.
        if ((ev & EPOLLIN) != 0 && conns.count(tag) != 0 && !draining) {
          read_ready(conn);
        }
      }
      graveyard.clear();  // no handler is live past the events loop
      const std::uint64_t now = env->now_ns();
      if (now - last_scan_ns >= 10'000'000) {  // scan timeouts every ~10ms
        last_scan_ns = now;
        scan_timeouts();
      }
      if (drain_finished()) break;
    }
    // Stop the pumps; abandoned tickets belong to connections already torn
    // down (or about to be -- close_fds() in the destructor sweeps the rest).
    hard_stop.store(true, std::memory_order_relaxed);
    {
      std::lock_guard lock(pump_mutex);
      pump_stop = true;
    }
    pump_ready.notify_all();
    for (std::thread& t : pumps) t.join();
    pumps.clear();
  }

  void request_stop() const {
    const std::uint64_t one = 1;
    (void)::write(stop_fd, &one, sizeof(one));
  }
};

FrontendServer::FrontendServer(ComparisonEngine& engine, FrontendOptions options)
    : impl_(std::make_unique<Impl>(&engine, std::move(options))) {}

FrontendServer::FrontendServer(FrontendOptions options)
    : impl_(std::make_unique<Impl>(nullptr, std::move(options))) {}

FrontendServer::~FrontendServer() = default;

int FrontendServer::port() const { return impl_->bound_port; }

void FrontendServer::run() { impl_->run(); }

void FrontendServer::request_stop() { impl_->request_stop(); }

FrontendStats FrontendServer::stats() const { return impl_->counters.snapshot(); }

// ---------------------------------------------------------------------------
// ThreadedFrontend: thread-per-connection with owned lifetimes.

struct ThreadedFrontend::Impl {
  struct Session {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  ComparisonEngine& engine;
  FrontendOptions options;
  Env* env;
  Counters counters;
  int listener = -1;
  int bound_port = 0;
  std::atomic<bool> stop_requested{false};

  std::mutex sessions_mutex;
  std::vector<std::unique_ptr<Session>> sessions;
  std::uint64_t next_session_id = 1;  // only the accept loop touches it

  Impl(ComparisonEngine& eng, FrontendOptions opts)
      : engine(eng), options(std::move(opts)), env(options.env ? options.env : &real_env()) {
    raise_fd_limit();
    auto [fd, port] = make_listener(options.port, options.listen_backlog,
                                    /*non_blocking=*/false);
    listener = fd;
    bound_port = port;
  }

  ~Impl() {
    if (listener >= 0) ::close(listener);
  }

  Response handle(const Request& request) {
    Response response;
    try {
      switch (request.op) {
        case Op::kPing:
          break;
        case Op::kStats:
          response.text = stats_json(engine.stats(), counters.snapshot());
          break;
        case Op::kHealth:
          response.text = health_json(engine.stats());
          break;
        case Op::kShardCtl:
          response = error_response("shardctl: not a router");
          break;
        case Op::kUpsert: {
          // `a` carries the document id, never sequence data: no dna pack.
          if (options.corpus == nullptr) {
            response = error_response("upsert: no corpus attached");
          } else {
            const UpsertReport report = options.corpus->upsert_document(
                to_string(request.a), ingest(options.dna, request.b));
            response.value = report.version;
            response.text = report.json();
          }
          break;
        }
        default: {
          const Sequence a = ingest(options.dna, request.a);
          const Sequence b = ingest(options.dna, request.b);
          auto future = engine.entry_async(a, b);
          if (options.drain_inline) engine.drain();
          response = answer_with_entry(engine, *future.get(), request);
          break;
        }
      }
    } catch (const EngineOverloaded& e) {
      counters.retry_after.fetch_add(1, std::memory_order_relaxed);
      response = overloaded_response(e.retry_after_ms(), e.what());
    } catch (const std::exception& e) {
      response = error_response(e.what());
    }
    return response;
  }

  bool write_all(int fd, std::string_view bytes, const std::string& label) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const long w = env->fd_write(fd, bytes.data() + off, bytes.size() - off, label);
      if (w <= 0) return false;
      off += static_cast<std::size_t>(w);
    }
    return true;
  }

  /// Streams a plot on the session thread: write_all blocks on the socket,
  /// which is the backpressure -- a slow reader slows the compute instead of
  /// buffering tiles. Returns false when the connection is gone.
  bool stream_plot(int fd, const Request& request, const std::string& label) {
    bool ok = true;
    try {
      if (!request.plot) throw std::out_of_range("plot request without a plot spec");
      const Sequence a = ingest(options.dna, request.a);
      const Sequence b = ingest(options.dna, request.b);
      engine.alignment_plot(
          a, b, *request.plot,
          [&](PlotTile&& tile) {
            Response response;
            response.tile = std::move(tile);
            ok = write_all(fd, frame_payload(encode_response(response)), label);
            return ok;
          },
          options.drain_inline);
    } catch (const EngineOverloaded& e) {
      counters.retry_after.fetch_add(1, std::memory_order_relaxed);
      ok = write_all(fd,
                     frame_payload(encode_response(
                         overloaded_response(e.retry_after_ms(), e.what()))),
                     label) &&
           ok;
    } catch (const std::exception& e) {
      ok = write_all(fd, frame_payload(encode_response(error_response(e.what()))),
                     label) &&
           ok;
    }
    return ok;
  }

  void session_loop(Session& session, const std::string& label) {
    FrameDecoder decoder;
    char buf[1 << 16];
    bool open = true;
    while (open) {
      const long n = env->fd_read(session.fd, buf, sizeof(buf), label);
      if (n <= 0) break;  // EOF (graceful drain lands here too) or error
      try {
        decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                     [&](std::string_view payload, bool spanned) {
                       counters.frames.fetch_add(1, std::memory_order_relaxed);
                       if (spanned) {
                         counters.partial_frames.fetch_add(1,
                                                           std::memory_order_relaxed);
                       }
                       Response response;
                       bool answered = false;
                       try {
                         Request request = decode_request(payload);
                         if (request.op == Op::kAlignmentPlot) {
                           counters.inline_answers.fetch_add(
                               1, std::memory_order_relaxed);
                           if (!stream_plot(session.fd, request, label)) open = false;
                           answered = true;
                         } else {
                           response = handle(request);
                         }
                       } catch (const ProtocolError& e) {
                         counters.protocol_errors.fetch_add(
                             1, std::memory_order_relaxed);
                         response = error_response(e.what());
                       }
                       if (answered) return;
                       counters.inline_answers.fetch_add(1, std::memory_order_relaxed);
                       if (!write_all(session.fd,
                                      frame_payload(encode_response(response)),
                                      label)) {
                         open = false;
                       }
                     });
      } catch (const ProtocolError& e) {
        counters.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        (void)write_all(session.fd, frame_payload(encode_response(error_response(e.what()))),
                        label);
        break;
      }
    }
    // The fd stays open until reap() has joined this thread: closing it here
    // would race the reaper's shutdown(2) on the same descriptor (and the
    // kernel could recycle the number under it). The loop only marks done.
    counters.active.fetch_sub(1, std::memory_order_relaxed);
    counters.closed.fetch_add(1, std::memory_order_relaxed);
    session.done.store(true, std::memory_order_release);
  }

  /// Joins finished sessions; with `all`, shuts every live session down for
  /// reading first (it finishes its in-flight request, flushes and exits)
  /// and joins everything -- the graceful drain.
  void reap(bool all) {
    std::vector<std::unique_ptr<Session>> to_join;
    {
      std::lock_guard lock(sessions_mutex);
      if (all) {
        for (const auto& s : sessions) {
          if (s->fd >= 0) ::shutdown(s->fd, SHUT_RD);
        }
        to_join.swap(sessions);
      } else {
        auto it = sessions.begin();
        while (it != sessions.end()) {
          if ((*it)->done.load(std::memory_order_acquire)) {
            to_join.push_back(std::move(*it));
            it = sessions.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
    for (const auto& s : to_join) {
      if (s->thread.joinable()) s->thread.join();
      if (s->fd >= 0) ::close(s->fd);  // sole owner once the thread is joined
    }
  }

  void run() {
    while (!stop_requested.load(std::memory_order_relaxed)) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // listener shut down (request_stop) or failed
      }
      const int nodelay = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
      reap(/*all=*/false);
      if (counters.active.load(std::memory_order_relaxed) >= options.max_connections) {
        counters.shed.fetch_add(1, std::memory_order_relaxed);
        const std::string frame = frame_payload(encode_response(overloaded_response(
            options.admission_retry_ms, "connection limit reached")));
        (void)env->fd_write(fd, frame.data(), frame.size(), "conn:shed");
        counters.retry_after.fetch_add(1, std::memory_order_relaxed);
        ::close(fd);
        continue;
      }
      counters.accepted.fetch_add(1, std::memory_order_relaxed);
      counters.active.fetch_add(1, std::memory_order_relaxed);
      auto session = std::make_unique<Session>();
      session->fd = fd;
      Session* raw = session.get();
      // A monotonic session id, not the fd: fd numbers recycle after close,
      // which would let a FaultPlan rule aimed at one connection fire on a
      // later unrelated session.
      const std::string label = "conn:" + std::to_string(next_session_id++);
      session->thread = std::thread([this, raw, label] { session_loop(*raw, label); });
      std::lock_guard lock(sessions_mutex);
      sessions.push_back(std::move(session));
    }
    reap(/*all=*/true);  // graceful drain: no session outlives run()
  }

  void request_stop() {
    stop_requested.store(true, std::memory_order_relaxed);
    // shutdown(2) is async-signal-safe and makes the blocking accept fail.
    ::shutdown(listener, SHUT_RDWR);
  }
};

ThreadedFrontend::ThreadedFrontend(ComparisonEngine& engine, FrontendOptions options)
    : impl_(std::make_unique<Impl>(engine, std::move(options))) {}

ThreadedFrontend::~ThreadedFrontend() = default;

int ThreadedFrontend::port() const { return impl_->bound_port; }

void ThreadedFrontend::run() { impl_->run(); }

void ThreadedFrontend::request_stop() { impl_->request_stop(); }

FrontendStats ThreadedFrontend::stats() const { return impl_->counters.snapshot(); }

}  // namespace semilocal
