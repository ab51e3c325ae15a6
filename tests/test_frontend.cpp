// In-process tests for the serve transports over the one dispatcher
// (engine/service.hpp). The reactor (engine/frontend.hpp): protocol round
// trips through real sockets, every op answered exactly as a direct
// EngineService::handle answers it, where each answer is booked (inline or
// pump), the typed admission-control verdicts (shed, per-connection budget,
// scheduler backpressure as RETRY_AFTER), slow-client defenses (slow-loris
// read timeout, idle eviction, write-queue cap), deterministic fault
// injection through the Env socket seam, graceful drain on stop, and engine
// teardown right after a stop. Every reactor test binds port 0 (a fresh free
// port) and runs the frontend on a background thread; the multi-client
// hammer doubles as the tsan workload for the reactor / pump / counter
// interleavings. ServeStream: the stdio session loop over stringstreams.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

#include "core/api.hpp"
#include "engine/corpus_version.hpp"
#include "engine/engine.hpp"
#include "engine/env.hpp"
#include "engine/frontend.hpp"
#include "engine/protocol.hpp"
#include "engine/service.hpp"
#include "oracles.hpp"
#include "scratch.hpp"

namespace semilocal {
namespace {

using namespace std::chrono_literals;

Sequence seq(const std::string& text) {
  Sequence out;
  out.reserve(text.size());
  for (const char c : text) out.push_back(static_cast<Symbol>(c));
  return out;
}

Request lcs_request(const std::string& a, const std::string& b) {
  Request request;
  request.op = Op::kLcs;
  request.a = seq(a);
  request.b = seq(b);
  return request;
}

/// A blocking test client: framed sends, decoder-driven receives with a
/// deadline, and explicit EOF observation.
class Client {
 public:
  /// rcvbuf_bytes > 0 shrinks SO_RCVBUF before connect (set early so the
  /// advertised TCP window honors it) -- the lever that keeps the kernel
  /// from absorbing responses a never-reading client test wants queued
  /// server-side.
  explicit Client(int port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("client socket failed");
    if (rcvbuf_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes, sizeof(rcvbuf_bytes));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error(std::string("client connect: ") + std::strerror(errno));
    }
    const int nodelay = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  }

  ~Client() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send_bytes(std::string_view bytes) {
    if (!send_unless_closed(bytes)) throw std::runtime_error("client write failed");
  }

  /// Sends all of `bytes`; false if the server closed the connection first
  /// (EPIPE/ECONNRESET) -- for tests where that close is the outcome under
  /// test. MSG_NOSIGNAL keeps a write into a closed socket from raising
  /// SIGPIPE. Any other write error throws.
  bool send_unless_closed(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const auto n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) return false;
        throw std::runtime_error("client write failed");
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  void send(const Request& request) { send_bytes(frame_payload(encode_request(request))); }

  /// Next response frame, or nullopt on server-side close (EOF). Throws on
  /// deadline -- a stalled socket is always a test failure.
  std::optional<Response> recv(std::chrono::milliseconds deadline = 5000ms) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (queue_.empty()) {
      if (eof_) return std::nullopt;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          until - std::chrono::steady_clock::now());
      if (left <= 0ms) throw std::runtime_error("client recv deadline");
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready <= 0) continue;
      char buf[1 << 16];
      const auto n = ::read(fd_, buf, sizeof(buf));
      if (n == 0) {
        eof_ = true;
        continue;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        eof_ = true;  // RST from a hard server-side close
        continue;
      }
      decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                    [this](std::string_view payload, bool) {
                      queue_.push_back(decode_response(payload));
                    });
    }
    Response response = std::move(queue_.front());
    queue_.pop_front();
    return response;
  }

  /// True if the server closes this connection within the deadline.
  bool closed_by_server(std::chrono::milliseconds deadline = 5000ms) {
    try {
      while (recv(deadline).has_value()) {
      }
      return true;  // EOF
    } catch (const std::exception&) {
      return false;  // deadline: still open
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  std::deque<Response> queue_;
  bool eof_ = false;
};

EngineOptions small_engine(int workers) {
  EngineOptions options;
  options.store.dir = "";  // memory only
  options.store.cache_bytes = std::size_t{32} << 20;
  options.scheduler.workers = workers;
  options.scheduler.max_queue = 64;
  return options;
}

/// Engine + optional in-memory corpus + reactor + its run() thread, torn
/// down in order.
struct Reactor {
  ComparisonEngine engine;
  std::unique_ptr<CorpusManager> corpus;
  FrontendServer server;
  std::thread thread;

  Reactor(EngineOptions engine_options, FrontendOptions frontend_options,
          bool with_corpus = false)
      : engine(std::move(engine_options)),
        corpus(with_corpus ? std::make_unique<CorpusManager>(engine, CorpusManagerOptions{})
                           : nullptr),
        server(engine,
               [&] {
                 frontend_options.corpus = corpus.get();
                 return std::move(frontend_options);
               }()),
        thread([this] { server.run(); }) {}

  ~Reactor() { stop(); }

  void stop() {
    if (thread.joinable()) {
      server.request_stop();
      thread.join();
    }
  }

  [[nodiscard]] int port() const { return server.port(); }
};

FrontendOptions quiet_frontend() {
  FrontendOptions options;
  options.port = 0;
  options.idle_timeout_ms = 0;  // tests opt in to timeouts explicitly
  options.read_timeout_ms = 0;
  return options;
}

template <typename Pred>
bool eventually(Pred&& pred, std::chrono::milliseconds deadline = 5000ms) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

TEST(Frontend, AnswersPingQueriesAndBatchesOverOneConnection) {
  Reactor reactor(small_engine(1), quiet_frontend());
  Client client(reactor.port());

  Request ping;
  ping.op = Op::kPing;
  client.send(ping);
  auto response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kOk);

  client.send(lcs_request("ACGTACGT", "AGTCAGTC"));
  response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kOk);
  EXPECT_GT(response->value, 0);

  Request batch;
  batch.op = Op::kBatchQuery;
  batch.a = seq("ACGTACGT");
  batch.b = seq("AGTCAGTC");
  for (int i = 0; i < 5; ++i) {
    WindowQuery w;
    w.kind = QueryKind::kLcs;
    batch.windows.push_back(w);
  }
  client.send(batch);
  response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kOk);
  ASSERT_EQ(response->values.size(), 5u);

  Request stats;
  stats.op = Op::kStats;
  client.send(stats);
  response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->text.find("\"frontend_connections\""), std::string::npos);
  EXPECT_NE(response->text.find("\"frontend_shed\""), std::string::npos);

  const FrontendStats fs = reactor.server.stats();
  EXPECT_EQ(fs.connections_accepted, 1u);
  EXPECT_EQ(fs.frames_decoded, 4u);
  EXPECT_EQ(fs.protocol_errors, 0u);
}

TEST(Frontend, ResponsesStayInRequestOrderAcrossWarmAndColdPaths) {
  // One cold pair (pump path) immediately followed by pings (inline path):
  // FIFO slots must hold the pings behind the compute.
  Reactor reactor(small_engine(1), quiet_frontend());
  Client client(reactor.port());
  client.send(lcs_request(std::string(2000, 'A') + "CGT", std::string(2000, 'C') + "GTA"));
  Request ping;
  ping.op = Op::kPing;
  client.send(ping);
  client.send(ping);
  const auto first = client.recv();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, Status::kOk);
  EXPECT_GT(first->value, 0);  // the LCS answer arrived first
  for (int i = 0; i < 2; ++i) {
    const auto pong = client.recv();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->value, 0);
  }
}

TEST(Frontend, FirstWindowQueryBuildsTheIndexOnAPumpNotInline) {
  // A computed pair has no QueryIndex until its first window query. That
  // query's build runs on a pump, never on the event loop; later queries on
  // the pair answer inline off the built index.
  Reactor reactor(small_engine(1), quiet_frontend());
  const Sequence a = testing::random_string(300, 4, 8101);
  const Sequence b = testing::random_string(340, 4, 8102);
  ASSERT_NE(reactor.engine.entry(a, b), nullptr);  // ready, unindexed
  Client client(reactor.port());
  const auto request_for = [&](Op op) {
    Request request;
    request.op = op;
    request.a = a;
    request.b = b;
    return request;
  };

  // kLcs answers from the entry's cached score: inline, and still no build.
  FrontendStats before = reactor.server.stats();
  client.send(request_for(Op::kLcs));
  auto response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->value, testing::lcs_oracle(a, b));
  EXPECT_EQ(reactor.server.stats().inline_answers, before.inline_answers + 1);
  EXPECT_EQ(reactor.engine.stats().queries.index_builds, 0u);

  Request batch = request_for(Op::kBatchQuery);
  std::vector<Index> expected;
  for (Index j0 = 0; j0 < 340; j0 += 37) {
    batch.windows.push_back({QueryKind::kStringSubstring, j0, 340});
    expected.push_back(testing::lcs_oracle(a, Sequence(b.begin() + j0, b.end())));
  }
  for (Index i1 = 300; i1 > 0; i1 -= 41) {
    batch.windows.push_back({QueryKind::kSubstringString, 0, i1});
    expected.push_back(testing::lcs_oracle(Sequence(a.begin(), a.begin() + i1), b));
  }
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round == 0 ? "first window query" : "second window query");
    before = reactor.server.stats();
    client.send(batch);
    response = client.recv();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, Status::kOk);
    EXPECT_EQ(response->values, expected);
    const FrontendStats after = reactor.server.stats();
    EXPECT_EQ(after.inline_answers, before.inline_answers + (round == 0 ? 0 : 1));
    EXPECT_EQ(after.pump_answers, before.pump_answers + (round == 0 ? 1 : 0));
    EXPECT_EQ(reactor.engine.stats().queries.index_builds, 1u);
  }
}

TEST(Frontend, CompressedEntryAnswersLcsInlineAndPromotesOnAPump) {
  // A v3 disk hit is compressed-resident. Its kLcs answers inline from the
  // score it computes once; its first window query decodes and indexes it
  // on a pump; the next window query answers inline off the promoted entry.
  testing::ScratchDir dir("compressed_reactor");
  const Sequence a = testing::random_string(300, 4, 8111);
  const Sequence b = testing::random_string(340, 4, 8112);
  {
    KernelStoreOptions store;
    store.dir = dir.str();
    KernelStore warm(store);
    warm.put(make_pair_key(a, b),
             std::make_shared<const CachedKernel>(
                 std::make_shared<const SemiLocalKernel>(semi_local_kernel(a, b))));
  }
  EngineOptions options = small_engine(1);
  options.store.dir = dir.str();
  Reactor reactor(std::move(options), quiet_frontend());
  ASSERT_TRUE(reactor.engine.entry(a, b)->is_compressed());
  Client client(reactor.port());
  const auto request_for = [&](Op op, Index x = 0, Index y = 0) {
    Request request;
    request.op = op;
    request.a = a;
    request.b = b;
    request.x = x;
    request.y = y;
    return request;
  };

  FrontendStats before = reactor.server.stats();
  client.send(request_for(Op::kLcs));
  auto response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->value, testing::lcs_oracle(a, b));
  EXPECT_EQ(reactor.server.stats().inline_answers, before.inline_answers + 1);
  EXPECT_EQ(reactor.engine.stats().store.promotions, 0u);

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round == 0 ? "first window query" : "second window query");
    const Index j0 = 17 + 40 * round;
    before = reactor.server.stats();
    client.send(request_for(Op::kStringSubstring, j0, 340));
    response = client.recv();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, Status::kOk);
    EXPECT_EQ(response->value, testing::lcs_oracle(a, Sequence(b.begin() + j0, b.end())));
    const FrontendStats after = reactor.server.stats();
    EXPECT_EQ(after.inline_answers, before.inline_answers + (round == 0 ? 0 : 1));
    EXPECT_EQ(after.pump_answers, before.pump_answers + (round == 0 ? 1 : 0));
  }
  const EngineStats stats = reactor.engine.stats();
  EXPECT_EQ(stats.store.promotions, 1u);
  EXPECT_EQ(stats.queries.index_builds, 1u);
  EXPECT_EQ(stats.store.cache.compressed_entries, 0u);
}

TEST(Frontend, MaxConnectionsGateShedsWithOneRetryAfterFrame) {
  FrontendOptions options = quiet_frontend();
  options.max_connections = 2;
  Reactor reactor(small_engine(1), options);

  Client first(reactor.port());
  Client second(reactor.port());
  Request ping;
  ping.op = Op::kPing;
  first.send(ping);
  ASSERT_TRUE(first.recv().has_value());
  second.send(ping);
  ASSERT_TRUE(second.recv().has_value());

  Client third(reactor.port());
  const auto verdict = third.recv();
  ASSERT_TRUE(verdict.has_value()) << "shed connections get a frame, not silence";
  EXPECT_EQ(verdict->status, Status::kOverloaded);
  EXPECT_GE(verdict->retry_ms, 1);
  EXPECT_TRUE(third.closed_by_server());

  EXPECT_TRUE(eventually([&] { return reactor.server.stats().connections_shed == 1; }));
  EXPECT_GE(reactor.server.stats().retry_after_sent, 1u);
  // The admitted connections are unaffected.
  first.send(ping);
  EXPECT_TRUE(first.recv().has_value());
}

TEST(Frontend, SchedulerBackpressureBecomesTypedRetryAfter) {
  // workers = 0 and no inline drain: the queue holds job A until the test
  // drains it, so a second distinct pair deterministically overflows
  // max_queue = 1 and must come back as kOverloaded with the retry hint.
  EngineOptions engine_options = small_engine(0);
  engine_options.scheduler.max_queue = 1;
  FrontendOptions options = quiet_frontend();
  options.drain_inline = false;
  Reactor reactor(std::move(engine_options), options);

  Client client(reactor.port());
  client.send(lcs_request("AAAACCCC", "CCCCAAAA"));  // job A: parks in the queue
  ASSERT_TRUE(eventually([&] { return reactor.engine.stats().scheduler.queue_depth == 1; }))
      << "job A never reached the scheduler queue";
  client.send(lcs_request("GGGGTTTT", "TTTTGGGG"));  // job B: queue is full
  ASSERT_TRUE(eventually([&] { return reactor.server.stats().retry_after_sent == 1; }))
      << "the overload verdict was never issued";

  reactor.engine.drain();  // resolve job A so its response can flush

  const auto first = client.recv();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, Status::kOk) << first->text;
  const auto second = client.recv();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, Status::kOverloaded);
  EXPECT_GE(second->retry_ms, 1) << "RETRY_AFTER must carry a usable hint";
  // The connection survives a backpressure verdict.
  Request ping;
  ping.op = Op::kPing;
  client.send(ping);
  EXPECT_TRUE(client.recv().has_value());
}

TEST(Frontend, PerConnectionInflightBudgetAnswersRetryAfter) {
  EngineOptions engine_options = small_engine(0);  // nothing resolves on its own
  FrontendOptions options = quiet_frontend();
  options.max_inflight_per_conn = 2;
  options.drain_inline = false;
  Reactor reactor(std::move(engine_options), options);

  Client client(reactor.port());
  client.send(lcs_request("AAAA", "AACA"));
  client.send(lcs_request("CCCC", "CACC"));
  client.send(lcs_request("GGGG", "GAGG"));  // third cold request: over budget
  ASSERT_TRUE(eventually([&] { return reactor.server.stats().retry_after_sent == 1; }));

  reactor.engine.drain();
  const auto first = client.recv();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, Status::kOk);
  const auto second = client.recv();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, Status::kOk);
  const auto third = client.recv();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->status, Status::kOverloaded);
}

TEST(Frontend, SlowLorisPartialFrameHitsTheReadTimeout) {
  FrontendOptions options = quiet_frontend();
  options.read_timeout_ms = 60;
  Reactor reactor(small_engine(1), options);

  Client client(reactor.port());
  client.send_bytes(std::string_view("\x21\x00", 2));  // 2 of 4 header bytes, then silence
  EXPECT_TRUE(client.closed_by_server(2000ms));
  EXPECT_TRUE(eventually([&] { return reactor.server.stats().timeouts_read == 1; }));
  EXPECT_EQ(reactor.server.stats().timeouts_idle, 0u);
}

TEST(Frontend, IdleConnectionsAreEvicted) {
  FrontendOptions options = quiet_frontend();
  options.idle_timeout_ms = 60;
  Reactor reactor(small_engine(1), options);

  Client client(reactor.port());
  Request ping;
  ping.op = Op::kPing;
  client.send(ping);
  ASSERT_TRUE(client.recv().has_value());
  // Now idle: no bytes, no partial frame, no pending work.
  EXPECT_TRUE(client.closed_by_server(2000ms));
  EXPECT_TRUE(eventually([&] { return reactor.server.stats().timeouts_idle == 1; }));
}

TEST(Frontend, NeverReadingClientIsDisconnectedAtTheWriteQueueCap) {
  FrontendOptions options = quiet_frontend();
  options.max_write_queue_bytes = std::size_t{64} << 10;
  Reactor reactor(small_engine(1), options);

  Client client(reactor.port(), /*rcvbuf_bytes=*/16 << 10);
  // Each response carries 64k values (~512 KiB); the client never reads and
  // advertises a tiny receive window, so the kernel buffers saturate fast
  // and the server-side queue crosses the cap.
  Request batch;
  batch.op = Op::kBatchQuery;
  batch.a = seq("ACGTACGT");
  batch.b = seq("AGTCAGTC");
  batch.windows.resize(kMaxBatchWindows);
  for (WindowQuery& w : batch.windows) w.kind = QueryKind::kLcs;
  const std::string frame = frame_payload(encode_request(batch));
  // The server may disconnect before all 8 frames are written; a send that
  // fails on the closed socket ends the sending, not the test.
  for (int i = 0; i < 8; ++i) {
    if (!client.send_unless_closed(frame)) break;
  }
  EXPECT_TRUE(eventually(
      [&] { return reactor.server.stats().write_queue_disconnects == 1; }, 10000ms))
      << "server never disconnected the slow reader";
}

TEST(Frontend, ResponsesParkedBehindAColdHeadStillHitTheWriteQueueCap) {
  // The unbounded-parking regression: a cold request holds the FIFO head, so
  // every later warm response parks in pending with the flush buffer empty
  // and the socket never written. The cap must bound those parked bytes too,
  // not only the saturated-socket path.
  EngineOptions engine_options = small_engine(0);  // cold never resolves alone
  FrontendOptions options = quiet_frontend();
  options.drain_inline = false;
  options.max_write_queue_bytes = std::size_t{64} << 10;
  Reactor reactor(std::move(engine_options), options);

  Client client(reactor.port());
  // Warm one pair into the cache so batch queries on it answer inline.
  client.send(lcs_request("ACGTACGT", "AGTCAGTC"));
  ASSERT_TRUE(eventually([&] { return reactor.engine.stats().scheduler.queue_depth == 1; }));
  reactor.engine.drain();
  ASSERT_TRUE(client.recv().has_value());

  // The cold head: a distinct pair nothing will resolve.
  client.send(lcs_request("GGGGTTTT", "TTTTGGGG"));

  // One warm ~512 KiB batch response parks behind the gap and must cross the
  // 64 KiB cap without a single socket write.
  Request batch;
  batch.op = Op::kBatchQuery;
  batch.a = seq("ACGTACGT");
  batch.b = seq("AGTCAGTC");
  batch.windows.resize(kMaxBatchWindows);
  for (WindowQuery& w : batch.windows) w.kind = QueryKind::kLcs;
  client.send(batch);

  EXPECT_TRUE(eventually(
      [&] { return reactor.server.stats().write_queue_disconnects == 1; }))
      << "ready bytes parked behind the cold head were never capped";
  EXPECT_TRUE(client.closed_by_server());
  reactor.engine.drain();  // release the pump's future before teardown
}

TEST(Frontend, PoisonedStreamIsNeverReadAgainAfterProtocolError) {
  // After a ProtocolError the decoder has no frame boundary to resynchronize
  // on. A cold request keeps pending non-empty, so close_after_flush is
  // deferred -- the server must stop reading, or the pipelined pings below
  // would re-parse as frames and generate responses that postpone the close.
  EngineOptions engine_options = small_engine(0);
  FrontendOptions options = quiet_frontend();
  options.drain_inline = false;
  Reactor reactor(std::move(engine_options), options);

  Client client(reactor.port());
  client.send(lcs_request("ACGTACGT", "AGTCAGTC"));  // cold: holds the FIFO head
  ASSERT_TRUE(eventually([&] { return reactor.server.stats().frames_decoded == 1; }));
  client.send_bytes(std::string_view("\xff\xff\xff\xff", 4));  // poison
  ASSERT_TRUE(eventually([&] { return reactor.server.stats().protocol_errors == 1; }));

  Request ping;
  ping.op = Op::kPing;
  for (int i = 0; i < 16; ++i) client.send(ping);
  std::this_thread::sleep_for(100ms);  // time for the server to (wrongly) read
  EXPECT_EQ(reactor.server.stats().frames_decoded, 1u)
      << "bytes after the poison frame must never reach the decoder";

  reactor.engine.drain();  // resolve the cold head so the close can fire
  const auto first = client.recv();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, Status::kOk);
  const auto second = client.recv();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, Status::kError);
  EXPECT_FALSE(client.recv(2000ms).has_value()) << "connection must close, no pongs";
  EXPECT_EQ(reactor.server.stats().frames_decoded, 1u);
}

TEST(Frontend, MalformedFrameGetsAnErrorThenTheConnectionCloses) {
  Reactor reactor(small_engine(1), quiet_frontend());
  Client client(reactor.port());
  // Declared length over kMaxFrameBytes: unframed stream from here on.
  client.send_bytes(std::string_view("\xff\xff\xff\xff", 4));
  const auto response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kError);
  EXPECT_TRUE(client.closed_by_server());
  EXPECT_TRUE(eventually([&] { return reactor.server.stats().protocol_errors == 1; }));
}

TEST(Frontend, FaultyEnvTearsASpecificConnectionDeterministically) {
  // The Env socket seam: one scripted EIO on the first conn read kills that
  // connection; the trace records it as a sockread fault.
  FaultPlan plan;
  plan.clock_step_ns = 1;  // keep the synthetic clock away from the timeouts
  FaultRule rule;
  rule.op = EnvOp::kSockRead;
  rule.path_substring = "conn:";
  rule.count = 1;
  plan.rules.push_back(rule);
  FaultyEnv env(plan);

  FrontendOptions options = quiet_frontend();
  options.env = &env;
  Reactor reactor(small_engine(1), options);

  Client doomed(reactor.port());
  Request ping;
  ping.op = Op::kPing;
  doomed.send(ping);
  EXPECT_TRUE(doomed.closed_by_server());
  EXPECT_EQ(env.faults_injected(), 1u);
  EXPECT_NE(env.trace_text().find("sockread"), std::string::npos);

  // The next connection reads cleanly (the rule's window is spent).
  Client fine(reactor.port());
  fine.send(ping);
  EXPECT_TRUE(fine.recv().has_value());
}

TEST(Frontend, ShortReadInjectionExercisesTheDecoderResumePath) {
  // Truncate the first 32 conn reads to 3 bytes each: every frame spans
  // multiple reads, so the decoder's carry path must reassemble them all.
  FaultPlan plan;
  plan.clock_step_ns = 1;
  FaultRule rule;
  rule.op = EnvOp::kSockRead;
  rule.path_substring = "conn:";
  rule.count = 32;
  rule.short_write_bytes = 3;
  plan.rules.push_back(rule);
  FaultyEnv env(plan);

  FrontendOptions options = quiet_frontend();
  options.env = &env;
  Reactor reactor(small_engine(1), options);

  Client client(reactor.port());
  client.send(lcs_request("ACGT", "AGTC"));
  const auto response = client.recv();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kOk);
  EXPECT_GT(response->value, 0);
  EXPECT_GE(reactor.server.stats().partial_frames, 1u);
}

TEST(Frontend, GracefulDrainAnswersInFlightRequestsBeforeExit) {
  // workers = 0 and no inline drain pin four computes in flight: the server
  // has read the requests but cannot resolve them until the test drains the
  // engine. request_stop() must then wait for all four to answer and flush
  // before run() returns -- the shutdown path may not drop accepted work.
  EngineOptions engine_options = small_engine(0);
  FrontendOptions options = quiet_frontend();
  options.drain_inline = false;
  options.drain_timeout_ms = 5000;
  Reactor reactor(std::move(engine_options), options);
  Client client(reactor.port());
  for (int i = 0; i < 4; ++i) {
    client.send(lcs_request("ACGTACGTAC" + std::string(1, static_cast<char>('A' + i)),
                            "AGTCAGTCAG"));
  }
  ASSERT_TRUE(eventually([&] { return reactor.server.stats().frames_decoded == 4; }))
      << "requests never reached the server";
  reactor.server.request_stop();
  std::this_thread::sleep_for(50ms);  // let the drain begin with work in flight
  reactor.engine.drain();             // now the pumps can resolve their futures
  reactor.stop();                     // run() returns only after answer + flush
  for (int i = 0; i < 4; ++i) {
    const auto response = client.recv(1000ms);
    ASSERT_TRUE(response.has_value()) << "request " << i << " lost in shutdown";
    EXPECT_EQ(response->status, Status::kOk) << response->text;
  }
  EXPECT_FALSE(client.recv(500ms).has_value()) << "connection must close after drain";
}

TEST(Frontend, MultiClientHammerKeepsEveryConnectionConsistent) {
  // The tsan workload: concurrent clients race the reactor loop, the pump
  // pool and the stats snapshots.
  Reactor reactor(small_engine(2), quiet_frontend());
  constexpr int kClients = 4;
  constexpr int kRequests = 40;
  std::vector<std::thread> team;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    team.emplace_back([&, c] {
      try {
        Client client(reactor.port());
        for (int i = 0; i < kRequests; ++i) {
          // A small rotating pool: hits and misses interleave across clients.
          const std::string a = "ACGTACGT" + std::string(1, static_cast<char>('A' + (i + c) % 3));
          client.send(lcs_request(a, "AGTCAGTC"));
          const auto response = client.recv();
          if (!response || response->status != Status::kOk || response->value <= 0) {
            ++failures;
            return;
          }
          if (i % 10 == 0) {
            Request stats;
            stats.op = Op::kStats;
            client.send(stats);
            const auto s = client.recv();
            if (!s || s->text.find("frontend_frames") == std::string::npos) {
              ++failures;
              return;
            }
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (std::thread& t : team) t.join();
  EXPECT_EQ(failures.load(), 0);
  const FrontendStats fs = reactor.server.stats();
  EXPECT_EQ(fs.connections_accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(fs.protocol_errors, 0u);
}

TEST(Frontend, EachAnswerIsBookedInlineOrOnAPump) {
  // Pins where each op is answered -- the split perfbench reads as
  // frontend.inline_frac. Warm reads answer on the event loop; cold reads,
  // plots and upserts on a pump; engine-mode control ops are booked nowhere.
  // No workers: a cold pair computes only when its pump drains the queue,
  // so it can never turn warm before the event loop looks.
  FrontendOptions engine_mode = quiet_frontend();
  engine_mode.drain_inline = true;
  Reactor reactor(small_engine(0), engine_mode);
  Client client(reactor.port());
  const auto deltas_after = [&](const Request& request) {
    const FrontendStats before = reactor.server.stats();
    client.send(request);
    while (true) {
      const auto response = client.recv();
      if (!response.has_value()) throw std::runtime_error("server closed the connection");
      if (terminal_response_frame(*response)) break;
    }
    // A stream books its pump answer just after posting its terminal frame.
    (void)eventually([&] {
      const FrontendStats now = reactor.server.stats();
      return now.inline_answers + now.pump_answers >
             before.inline_answers + before.pump_answers;
    }, 200ms);
    const FrontendStats after = reactor.server.stats();
    return std::pair{after.inline_answers - before.inline_answers,
                     after.pump_answers - before.pump_answers};
  };
  using Booked = std::pair<std::uint64_t, std::uint64_t>;  // {inline, pump}

  const Request lcs = lcs_request("ACGTACGTTGCA", "AGTCAGTCCATG");
  EXPECT_EQ(deltas_after(lcs), Booked(0, 1)) << "cold kLcs";
  EXPECT_EQ(deltas_after(lcs), Booked(1, 0)) << "warm kLcs";

  Request plot;
  plot.op = Op::kAlignmentPlot;
  plot.a = testing::random_string(64, 4, 8201);
  plot.b = testing::random_string(64, 4, 8202);
  plot.plot = PlotSpec{.rows = 2, .cols = 2, .step = 8, .window = 16};
  EXPECT_EQ(deltas_after(plot), Booked(0, 1)) << "plot";

  Request upsert;
  upsert.op = Op::kUpsert;
  upsert.a = seq("doc");
  upsert.b = seq("ACGT");
  EXPECT_EQ(deltas_after(upsert), Booked(0, 1)) << "upsert (no corpus)";

  for (const Op op : {Op::kPing, Op::kStats, Op::kHealth}) {
    Request control;
    control.op = op;
    EXPECT_EQ(deltas_after(control), Booked(0, 0)) << "control op " << static_cast<int>(op);
  }

  // Handler mode answers kStats on the loop and books it there.
  FrontendOptions options = quiet_frontend();
  options.handler = [](const Request&) {
    Response response;
    response.text = "{\"handler\": 1}";
    return response;
  };
  FrontendServer handler_server(options);
  std::thread loop([&] { handler_server.run(); });
  Client handler_client(handler_server.port());
  Request stats;
  stats.op = Op::kStats;
  handler_client.send(stats);
  const auto answer = handler_client.recv();
  ASSERT_TRUE(answer.has_value());
  EXPECT_NE(answer->text.find("\"frontend_inline_answers\""), std::string::npos);
  const FrontendStats booked = handler_server.stats();
  EXPECT_EQ(booked.inline_answers, 1u);
  EXPECT_EQ(booked.pump_answers, 0u);
  handler_server.request_stop();
  loop.join();
}

TEST(Frontend, StatsJsonSplicesFrontendCountersIntoTheEngineObject) {
  FrontendStats fs;
  fs.connections_accepted = 7;
  fs.connections_shed = 2;
  fs.retry_after_sent = 3;
  fs.partial_frames = 11;
  const std::string json = stats_json(EngineStats{}, fs);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"requests\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"frontend_connections\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"frontend_shed\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"frontend_retry_after_sent\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"frontend_partial_frames\": 11"), std::string::npos);
}

TEST(Frontend, StopMidConversationThenDestroyTheEngine) {
  // request_stop() must answer and flush the request in flight, join every
  // pump and return; only then may the engine go. Destroying it right after
  // stop() must be safe -- asan would flag a pump still touching it.
  auto reactor = std::make_unique<Reactor>(small_engine(1), quiet_frontend());
  Client client(reactor->port());
  client.send(lcs_request("ACGTACGTACGT", "AGTCAGTCAGTC"));
  ASSERT_TRUE(client.recv().has_value());  // the conversation is live
  client.send(lcs_request(std::string(1500, 'A') + "CGT", std::string(1500, 'C') + "GTA"));
  ASSERT_TRUE(eventually([&] { return reactor->server.stats().frames_decoded == 2; }));

  reactor->stop();  // drains, joins the loop and every pump
  const auto answer = client.recv(1000ms);
  ASSERT_TRUE(answer.has_value()) << "the cold request in flight was dropped";
  EXPECT_EQ(answer->status, Status::kOk) << answer->text;
  EXPECT_GT(answer->value, 0);
  EXPECT_FALSE(client.recv(1000ms).has_value()) << "the connection must close on stop";
  reactor.reset();
}

// --- one dispatcher: every transport answers as EngineService::handle --------

/// The top-level keys of a flat JSON object.
std::set<std::string> json_keys(const std::string& json) {
  static const std::regex key("\"([A-Za-z0-9_]+)\":");
  std::set<std::string> keys;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), key);
       it != std::sregex_iterator(); ++it) {
    keys.insert((*it)[1]);
  }
  return keys;
}

/// One request per op and per failure shape an EngineService answers.
std::vector<Request> every_op() {
  const Sequence a = testing::random_string(120, 4, 8301);
  const Sequence b = testing::random_string(140, 4, 8302);
  const auto make = [](Op op, Sequence x_seq = {}, Sequence y_seq = {}, Index x = 0,
                       Index y = 0) {
    Request request;
    request.op = op;
    request.a = std::move(x_seq);
    request.b = std::move(y_seq);
    request.x = x;
    request.y = y;
    return request;
  };
  Request batch = make(Op::kBatchQuery, a, b);
  batch.windows = {{QueryKind::kLcs, 0, 0},
                   {QueryKind::kStringSubstring, 3, 77},
                   {QueryKind::kSubstringString, 0, 120}};
  return {
      make(Op::kPing),
      make(Op::kStats),
      make(Op::kHealth),
      make(Op::kShardCtl),
      make(Op::kLcs, a, b),
      make(Op::kStringSubstring, a, b, 10, 90),
      make(Op::kSubstringString, a, b, 5, 60),
      make(Op::kStringSubstring, a, b, 50, 500),  // window past |b|: kError
      batch,
      make(Op::kUpsert, seq("doc-a"), testing::random_string(300, 4, 8303)),
      make(Op::kUpsert, seq("doc-b"), testing::random_string(260, 4, 8304)),
      make(Op::kUpsert, seq("../bad id"), b),  // malformed id: kError
  };
}

/// `got` answers `request` as `want` does. Stats and health carry live
/// figures (uptime, latency), so those compare by key set; a transport may
/// add its frontend_* counters to stats.
void expect_same_answer(const Request& request, const Response& got, const Response& want) {
  SCOPED_TRACE("op " + std::to_string(static_cast<int>(request.op)));
  EXPECT_EQ(got.status, want.status) << got.text << " vs " << want.text;
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.values, want.values);
  if (request.y > static_cast<Index>(request.b.size())) {
    EXPECT_EQ(got.status, Status::kError) << "a window past |b| is an error";
  }
  if (request.op != Op::kStats && request.op != Op::kHealth) {
    EXPECT_EQ(got.text, want.text);
    return;
  }
  std::set<std::string> keys = json_keys(got.text);
  std::erase_if(keys, [](const std::string& k) { return k.starts_with("frontend_"); });
  EXPECT_EQ(keys, json_keys(want.text));
  EXPECT_FALSE(keys.empty());
}

/// An engine (+ corpus) answering through a direct EngineService, in step
/// with a transport under test over an identical engine.
struct Direct {
  ComparisonEngine engine{small_engine(1)};
  std::unique_ptr<CorpusManager> corpus;
  EngineService service;

  explicit Direct(bool with_corpus)
      : corpus(with_corpus ? std::make_unique<CorpusManager>(engine, CorpusManagerOptions{})
                           : nullptr),
        service(engine, corpus.get()) {}
};

TEST(Frontend, ReactorAnswersEveryOpLikeEngineServiceHandle) {
  for (const bool with_corpus : {false, true}) {
    SCOPED_TRACE(with_corpus ? "with a corpus" : "no corpus");
    Reactor reactor(small_engine(1), quiet_frontend(), with_corpus);
    Direct direct(with_corpus);
    Client client(reactor.port());
    for (const Request& request : every_op()) {
      client.send(request);
      const auto got = client.recv();
      ASSERT_TRUE(got.has_value());
      expect_same_answer(request, *got, direct.service.handle(request));
    }
  }
}

/// Frames `requests` into one byte stream, as a stdio peer would send them.
std::string frames_of(const std::vector<Request>& requests) {
  std::string bytes;
  for (const Request& request : requests) bytes += frame_payload(encode_request(request));
  return bytes;
}

/// Decodes every response frame of a stdio session's output.
std::vector<Response> responses_in(const std::string& bytes) {
  std::istringstream in(bytes);
  std::vector<Response> responses;
  while (const auto payload = read_frame(in)) responses.push_back(decode_response(*payload));
  return responses;
}

TEST(ServeStream, AnswersEveryOpLikeEngineServiceHandle) {
  for (const bool with_corpus : {false, true}) {
    SCOPED_TRACE(with_corpus ? "with a corpus" : "no corpus");
    Direct served(with_corpus);
    Direct direct(with_corpus);
    const std::vector<Request> requests = every_op();
    std::istringstream in(frames_of(requests));
    std::ostringstream out;
    serve_stream(served.service, in, out);  // returns at the clean EOF
    const std::vector<Response> got = responses_in(out.str());
    ASSERT_EQ(got.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      expect_same_answer(requests[i], got[i], direct.service.handle(requests[i]));
    }
  }
}

TEST(ServeStream, StreamsPlotTilesThenATerminalFrame) {
  EngineOptions options = small_engine(1);
  options.plot_tile_cells = 8;  // force a multi-tile stream
  ComparisonEngine engine(options);
  EngineService service(engine);
  Request plot;
  plot.op = Op::kAlignmentPlot;
  plot.a = testing::random_string(96, 4, 8311);
  plot.b = testing::random_string(96, 4, 8312);
  plot.plot = PlotSpec{.rows = 4, .cols = 5, .step = 12, .window = 24};
  Request ping;
  ping.op = Op::kPing;

  std::istringstream in(frames_of({plot, ping}));
  std::ostringstream out;
  serve_stream(service, in, out);
  const std::vector<Response> got = responses_in(out.str());

  std::vector<Response> want;
  service.stream(plot, [&](Response&& frame) {
    want.push_back(std::move(frame));
    return true;
  });
  ASSERT_GT(want.size(), 1u);
  ASSERT_EQ(got.size(), want.size() + 1);
  PlotAssembler assembler(4, 5, plot.plot->quant);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(encode_response(got[i]), encode_response(want[i])) << "frame " << i;
    EXPECT_EQ(terminal_response_frame(got[i]), i + 1 == want.size()) << "frame " << i;
    assembler.feed(got[i]);
  }
  EXPECT_TRUE(assembler.complete());
  EXPECT_EQ(got.back().status, Status::kOk);  // the ping after the stream
  EXPECT_FALSE(got.back().tile.has_value());
}

TEST(ServeStream, MalformedFrameAnswersOneErrorAndEndsTheSession) {
  ComparisonEngine engine(small_engine(1));
  EngineService service(engine);
  Request ping;
  ping.op = Op::kPing;
  // A ping, a header declaring more than kMaxFrameBytes, then a ping the
  // session must never reach.
  std::istringstream in(frames_of({ping}) + std::string("\xff\xff\xff\xff", 4) +
                        frames_of({ping}));
  std::ostringstream out;
  serve_stream(service, in, out);
  const std::vector<Response> got = responses_in(out.str());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].status, Status::kOk);
  EXPECT_EQ(got[1].status, Status::kError);
  EXPECT_FALSE(got[1].text.empty());
}

TEST(ServeStream, CleanEofReturnsWithoutAFrame) {
  ComparisonEngine engine(small_engine(1));
  EngineService service(engine);
  std::istringstream in;
  std::ostringstream out;
  serve_stream(service, in, out);
  EXPECT_TRUE(out.str().empty());
}

}  // namespace
}  // namespace semilocal
