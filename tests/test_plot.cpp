// Alignment-plot pipeline tests, planner to wire: the seam-walk planner
// primitive against per-point descents, engine tiles bit-equal to the naive
// per-window oracle, quantization, hostile-spec rejection at both the engine
// and the decoder, split-invariant tile streaming (small plot_tile_cells
// forces multi-tile streams), concurrent plots off one shared index (the
// tsan workload), the reactor streaming over real sockets the very frames a
// direct EngineService::stream emits, and the shard router relaying streams
// with mid-stream failover.
// Suites are named AlignmentPlot* -- the tsan preset filter keys on that.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/query_index.hpp"
#include "engine/engine.hpp"
#include "engine/frontend.hpp"
#include "engine/protocol.hpp"
#include "engine/service.hpp"
#include "engine/shard/router.hpp"
#include "util/random.hpp"

namespace semilocal {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Shared helpers.

Sequence random_seq(Index length, std::uint64_t seed, Symbol alphabet = 4) {
  return uniform_sequence(length, alphabet, seed);
}

/// Ground truth for one plot cell, recomputed from scratch: a fresh strip
/// kernel for grid row u, scanned per window. No engine, no index, no cache.
Index naive_cell(const Sequence& a, const Sequence& b, const PlotSpec& spec, Index u,
                 Index v) {
  const auto start = static_cast<std::size_t>(spec.row_start(u));
  const Sequence strip_a(a.begin() + static_cast<std::ptrdiff_t>(start),
                         a.begin() + static_cast<std::ptrdiff_t>(start + spec.window));
  const SemiLocalKernel strip = semi_local_kernel(strip_a, b);
  const Index j0 = spec.col_start(v);
  return strip.string_substring(j0, j0 + spec.window);
}

/// Runs engine.alignment_plot and reassembles the stream into a dense grid
/// of raw (unquantized where quant=16) cell values. Checks tile framing
/// invariants on the way: exactly one `last` tile, and it is the final one.
std::vector<Index> collect_plot(ComparisonEngine& engine, const Sequence& a,
                                const Sequence& b, const PlotSpec& spec,
                                std::size_t* tiles_out = nullptr) {
  PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
  std::size_t tiles = 0;
  bool saw_last = false;
  engine.alignment_plot(a, b, spec, [&](PlotTile&& tile) {
    EXPECT_FALSE(saw_last) << "tile after the last-flagged tile";
    saw_last = tile.last;
    ++tiles;
    Response frame;
    frame.tile = std::move(tile);
    assembler.feed(frame);
    return true;
  });
  EXPECT_TRUE(saw_last);
  EXPECT_TRUE(assembler.complete());
  if (tiles_out != nullptr) *tiles_out = tiles;
  std::vector<Index> grid;
  grid.reserve(static_cast<std::size_t>(spec.cells()));
  for (Index u = 0; u < spec.rows; ++u) {
    for (Index v = 0; v < spec.cols; ++v) grid.push_back(assembler.cell(u, v));
  }
  return grid;
}

EngineOptions plot_engine(bool planner = true, Index tile_cells = 0) {
  EngineOptions options;
  options.store.dir = "";
  options.store.cache_bytes = std::size_t{64} << 20;
  options.scheduler.workers = 2;
  options.scheduler.max_queue = 256;
  options.plot_planner = planner;
  if (tile_cells > 0) options.plot_tile_cells = tile_cells;
  return options;
}

Request plot_request(const Sequence& a, const Sequence& b, const PlotSpec& spec) {
  Request request;
  request.op = Op::kAlignmentPlot;
  request.a = a;
  request.b = b;
  request.plot = spec;
  return request;
}

// ---------------------------------------------------------------------------
// Planner primitive: the seam walk vs independent descents.

TEST(AlignmentPlotPlanner, SeamWalkMatchesDescentsAcrossStridesAndSeeds) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Sequence a = random_seq(24, seed * 10 + 1);
    const Sequence b = random_seq(400, seed * 10 + 2);
    const SemiLocalKernel kernel = semi_local_kernel(a, b);
    const QueryIndex index(kernel);
    const Index order = kernel.order();
    for (const Index step : {Index{1}, Index{2}, Index{3}, Index{7}, Index{16}}) {
      for (const Index start : {Index{0}, Index{5}, Index{24}}) {
        const auto count =
            static_cast<std::size_t>((order - start) / step) + (start <= order ? 1 : 0);
        if (count == 0) continue;
        std::vector<Index> walked(count);
        strided_diagonal_sigma(index, kernel.permutation(), start, step, count,
                               walked.data());
        for (std::size_t t = 0; t < count; ++t) {
          const Index i = start + static_cast<Index>(t) * step;
          ASSERT_EQ(walked[t], index.sigma(i, i))
              << "seed " << seed << " step " << step << " start " << start << " t " << t;
        }
      }
    }
  }
}

TEST(AlignmentPlotPlanner, ProfitabilityGatePassesSmallStridesOnly) {
  EXPECT_TRUE(strided_walk_profitable(1 << 12, 1));
  EXPECT_TRUE(strided_walk_profitable(1 << 12, 8));
  EXPECT_TRUE(strided_walk_profitable(1 << 12, 24));  // 2 * log2(4096)
  EXPECT_FALSE(strided_walk_profitable(1 << 12, 25));
  EXPECT_FALSE(strided_walk_profitable(16, 64));
}

// ---------------------------------------------------------------------------
// Engine: oracle equality, quantization, validation, tiling.

TEST(AlignmentPlotEngine, TilesBitEqualNaivePerWindowOracle) {
  const Sequence a = random_seq(300, 41);
  const Sequence b = random_seq(260, 42);
  PlotSpec spec;
  spec.row0 = 3;
  spec.col0 = 1;
  spec.rows = 18;
  spec.cols = 15;
  spec.step = 5;  // profitable: order ~ 300, 2*log2 = 18
  spec.window = 24;

  ComparisonEngine with_planner(plot_engine(true));
  ComparisonEngine without_planner(plot_engine(false));
  const std::vector<Index> planned = collect_plot(with_planner, a, b, spec);
  const std::vector<Index> lowered = collect_plot(without_planner, a, b, spec);
  ASSERT_EQ(planned.size(), static_cast<std::size_t>(spec.cells()));
  EXPECT_EQ(planned, lowered);

  for (Index u = 0; u < spec.rows; ++u) {
    for (Index v = 0; v < spec.cols; ++v) {
      ASSERT_EQ(planned[static_cast<std::size_t>(u * spec.cols + v)],
                naive_cell(a, b, spec, u, v))
          << "cell (" << u << ", " << v << ")";
    }
  }

  const EngineStats stats = with_planner.stats();
  EXPECT_EQ(stats.queries.plot_windows, static_cast<std::uint64_t>(spec.cells()));
  EXPECT_GT(stats.queries.plot_reused_descents, 0u);
  EXPECT_EQ(stats.queries.scanned, 0u) << "planner leg fell back to the O(m+n) scan";
}

TEST(AlignmentPlotEngine, UnprofitableStrideStillAnswersCorrectly) {
  // A stride past the profitability gate must transparently use the batched
  // descent lowering -- same cells, no reused descents.
  const Sequence a = random_seq(200, 51);
  const Sequence b = random_seq(200, 52);
  PlotSpec spec;
  spec.rows = 4;
  spec.cols = 4;
  spec.step = 40;  // order ~ 216, gate is 2*8 = 16 < 40
  spec.window = 16;
  ComparisonEngine engine(plot_engine(true));
  const std::vector<Index> grid = collect_plot(engine, a, b, spec);
  for (Index u = 0; u < spec.rows; ++u) {
    for (Index v = 0; v < spec.cols; ++v) {
      ASSERT_EQ(grid[static_cast<std::size_t>(u * spec.cols + v)],
                naive_cell(a, b, spec, u, v));
    }
  }
  EXPECT_EQ(engine.stats().queries.plot_reused_descents, 0u);
}

TEST(AlignmentPlotEngine, Quant8ScalesScoresIntoBytes) {
  const Sequence a = random_seq(150, 61);
  const Sequence b = random_seq(150, 62);
  PlotSpec spec;
  spec.rows = 6;
  spec.cols = 6;
  spec.step = 9;
  spec.window = 20;

  ComparisonEngine engine(plot_engine());
  spec.quant = 16;
  const std::vector<Index> raw = collect_plot(engine, a, b, spec);
  spec.quant = 8;
  const std::vector<Index> scaled = collect_plot(engine, a, b, spec);
  ASSERT_EQ(raw.size(), scaled.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(scaled[i], (raw[i] * 255 + spec.window / 2) / spec.window);
    EXPECT_LE(scaled[i], 255);
  }
}

TEST(AlignmentPlotEngine, RejectsHostileSpecs) {
  const Sequence a = random_seq(64, 71);
  const Sequence b = random_seq(64, 72);
  ComparisonEngine engine(plot_engine());
  const auto reject = [&](PlotSpec spec) {
    EXPECT_THROW(
        engine.alignment_plot(a, b, spec, [](PlotTile&&) { return true; }),
        std::out_of_range);
  };
  PlotSpec ok;
  ok.rows = 2;
  ok.cols = 2;
  ok.step = 8;
  ok.window = 16;

  PlotSpec spec = ok;
  spec.rows = 0;
  reject(spec);
  spec = ok;
  spec.step = 0;
  reject(spec);
  spec = ok;
  spec.step = kMaxPlotStep + 1;
  reject(spec);
  spec = ok;
  spec.window = 0;
  reject(spec);
  spec = ok;
  spec.window = kMaxPlotWindow + 1;
  reject(spec);
  spec = ok;
  spec.quant = 5;
  reject(spec);
  spec = ok;
  spec.row0 = -1;
  reject(spec);
  spec = ok;
  spec.rows = kMaxPlotCells;
  spec.cols = 2;
  reject(spec);  // rows * cols overflows the cell budget
  spec = ok;
  spec.window = 65;  // window longer than a
  reject(spec);
  spec = ok;
  spec.rows = 8;  // last row starts past the end of a
  reject(spec);
}

TEST(AlignmentPlotEngine, SmallTileBudgetForcesSplitInvariantStreams) {
  const Sequence a = random_seq(200, 81);
  const Sequence b = random_seq(200, 82);
  PlotSpec spec;
  spec.rows = 12;
  spec.cols = 11;
  spec.step = 7;
  spec.window = 16;

  ComparisonEngine one_tile(plot_engine(true));
  ComparisonEngine tiny_tiles(plot_engine(true, /*tile_cells=*/8));
  std::size_t tiles_single = 0;
  std::size_t tiles_split = 0;
  const std::vector<Index> whole = collect_plot(one_tile, a, b, spec, &tiles_single);
  const std::vector<Index> split = collect_plot(tiny_tiles, a, b, spec, &tiles_split);
  EXPECT_EQ(whole, split);  // reassembly is split-invariant
  EXPECT_EQ(tiles_single, 1u);
  // 8 cells per tile over 11 columns: 2 tiles per row, one row per band.
  EXPECT_EQ(tiles_split, static_cast<std::size_t>(spec.rows) * 2);
  EXPECT_EQ(tiny_tiles.stats().queries.plot_tiles, tiles_split);
}

TEST(AlignmentPlotEngine, CancelledSinkStopsTheStream) {
  const Sequence a = random_seq(120, 91);
  const Sequence b = random_seq(120, 92);
  PlotSpec spec;
  spec.rows = 10;
  spec.cols = 10;
  spec.step = 4;
  spec.window = 16;
  ComparisonEngine engine(plot_engine(true, /*tile_cells=*/10));
  std::size_t delivered = 0;
  engine.alignment_plot(a, b, spec, [&](PlotTile&&) { return ++delivered < 3; });
  EXPECT_EQ(delivered, 3u);  // the tile that returned false was the final one
}

TEST(AlignmentPlotEngine, ConcurrentPlotsShareOneIndex) {
  // Several threads stream the same plot off one engine: the strips and
  // their query indexes are shared immutable state (the tsan workload).
  const Sequence a = random_seq(220, 101);
  const Sequence b = random_seq(220, 102);
  PlotSpec spec;
  spec.rows = 10;
  spec.cols = 10;
  spec.step = 6;
  spec.window = 20;
  ComparisonEngine engine(plot_engine(true, /*tile_cells=*/16));

  constexpr int kThreads = 4;
  std::vector<std::vector<Index>> grids(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { grids[static_cast<std::size_t>(t)] = collect_plot(engine, a, b, spec); });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(grids[static_cast<std::size_t>(t)], grids[0]);
  }
  EXPECT_EQ(grids[0][0], naive_cell(a, b, spec, 0, 0));
}

// ---------------------------------------------------------------------------
// Protocol: round trips, hostile frames, assembler invariants.

TEST(AlignmentPlotProtocol, PlotRequestRoundTrips) {
  PlotSpec spec;
  spec.row0 = 7;
  spec.col0 = 9;
  spec.rows = 33;
  spec.cols = 21;
  spec.step = 3;
  spec.window = 40;
  spec.quant = 8;
  const Request request = plot_request(random_seq(64, 111), random_seq(64, 112), spec);
  const Request decoded = decode_request(encode_request(request));
  EXPECT_EQ(decoded.op, Op::kAlignmentPlot);
  ASSERT_TRUE(decoded.plot.has_value());
  EXPECT_EQ(decoded.plot->row0, spec.row0);
  EXPECT_EQ(decoded.plot->col0, spec.col0);
  EXPECT_EQ(decoded.plot->rows, spec.rows);
  EXPECT_EQ(decoded.plot->cols, spec.cols);
  EXPECT_EQ(decoded.plot->step, spec.step);
  EXPECT_EQ(decoded.plot->window, spec.window);
  EXPECT_EQ(decoded.plot->quant, spec.quant);
  EXPECT_EQ(decoded.a, request.a);
  EXPECT_EQ(decoded.b, request.b);
}

TEST(AlignmentPlotProtocol, TileResponseRoundTripsAndTerminates) {
  Response response;
  PlotTile tile;
  tile.row0 = 4;
  tile.col0 = 2;
  tile.rows = 3;
  tile.cols = 5;
  tile.quant = 16;
  tile.last = false;
  tile.cells.assign(3 * 5 * 2, '\x7f');
  response.tile = tile;
  const Response decoded = decode_response(encode_response(response));
  ASSERT_TRUE(decoded.tile.has_value());
  EXPECT_EQ(decoded.tile->row0, 4);
  EXPECT_EQ(decoded.tile->col0, 2);
  EXPECT_EQ(decoded.tile->rows, 3u);
  EXPECT_EQ(decoded.tile->cols, 5u);
  EXPECT_EQ(decoded.tile->cells, tile.cells);
  EXPECT_FALSE(terminal_response_frame(decoded));

  response.tile->last = true;
  EXPECT_TRUE(terminal_response_frame(decode_response(encode_response(response))));
  EXPECT_TRUE(terminal_response_frame(Response{}));  // plain frames terminate
}

TEST(AlignmentPlotProtocol, DecodeRejectsHostilePlotDimensions) {
  PlotSpec ok;
  ok.rows = 4;
  ok.cols = 4;
  ok.step = 2;
  ok.window = 8;
  const Sequence a = random_seq(32, 121);
  const Sequence b = random_seq(32, 122);

  // Hostile values that cannot be expressed through the typed encoder are
  // spliced into otherwise-valid encoded bytes. The plot block is the last
  // 33 bytes of the request payload: row0, col0 (i64) rows, cols, step,
  // window (u32) and quant (u8), all little-endian -- so the u32 field f
  // starts 17 - 4*f bytes from the end.
  const std::string good = encode_request(plot_request(a, b, ok));
  const auto splice_u32 = [&](std::size_t field, std::uint32_t value) {
    std::string bytes = good;
    const std::size_t off = bytes.size() - 17 + field * 4;
    for (int i = 0; i < 4; ++i) {
      bytes[off + static_cast<std::size_t>(i)] =
          static_cast<char>((value >> (8 * i)) & 0xff);
    }
    return bytes;
  };
  EXPECT_NO_THROW((void)decode_request(good));
  // rows = 0 and step = 0 are structurally invalid...
  EXPECT_THROW((void)decode_request(splice_u32(0, 0)), ProtocolError);
  EXPECT_THROW((void)decode_request(splice_u32(2, 0)), ProtocolError);
  // ...and absurd dimensions die at the cell/stride ceilings, pre-engine.
  EXPECT_THROW((void)decode_request(splice_u32(0, 0x7fffffffu)), ProtocolError);
  EXPECT_THROW((void)decode_request(splice_u32(1, 0x7fffffffu)), ProtocolError);
  EXPECT_THROW((void)decode_request(splice_u32(2, 0x7fffffffu)), ProtocolError);
  EXPECT_THROW((void)decode_request(splice_u32(3, 0)), ProtocolError);

  // Truncation anywhere inside the plot block is a framing error.
  for (const std::size_t cut : {std::size_t{1}, std::size_t{12}, std::size_t{28}}) {
    EXPECT_THROW((void)decode_request(good.substr(0, good.size() - cut)),
                 ProtocolError);
  }
}

TEST(AlignmentPlotProtocol, DecodeRejectsCorruptTileFrames) {
  Response response;
  PlotTile tile;
  tile.row0 = 0;
  tile.col0 = 0;
  tile.rows = 2;
  tile.cols = 2;
  tile.quant = 8;
  tile.last = true;
  tile.cells.assign(4, '\x01');
  response.tile = tile;
  const std::string good = encode_response(response);
  EXPECT_NO_THROW((void)decode_response(good));
  // Truncated cell payloads must die at the byte-count check.
  for (std::size_t cut = 1; cut <= 4; ++cut) {
    EXPECT_THROW((void)decode_response(good.substr(0, good.size() - cut)),
                 ProtocolError);
  }
  // A quant byte outside {8, 16} is rejected even with plausible sizes.
  std::string bad_quant = good;
  const std::size_t quant_off = good.size() - 4 /*cells*/ - 4 /*nbytes*/ - 2;
  bad_quant[quant_off] = '\x03';
  EXPECT_THROW((void)decode_response(bad_quant), ProtocolError);
}

TEST(AlignmentPlotProtocol, AssemblerDedupsReplaysAndRejectsMismatches) {
  PlotAssembler assembler(2, 2, 16);
  Response frame;
  PlotTile tile;
  tile.row0 = 0;
  tile.col0 = 0;
  tile.rows = 2;
  tile.cols = 2;
  tile.quant = 16;
  tile.cells.assign(8, '\x05');
  frame.tile = tile;
  EXPECT_EQ(assembler.feed(frame), 4u);
  EXPECT_TRUE(assembler.complete());
  // A router failover replays the whole stream: every cell dedups.
  EXPECT_EQ(assembler.feed(frame), 0u);
  EXPECT_EQ(assembler.duplicate_cells(), 4u);

  frame.tile->quant = 8;
  frame.tile->cells.assign(4, '\x05');
  EXPECT_THROW((void)assembler.feed(frame), ProtocolError);
  frame.tile->quant = 16;
  frame.tile->cells.assign(8, '\x05');
  frame.tile->col0 = 1;  // overhangs the 2x2 grid
  EXPECT_THROW((void)assembler.feed(frame), ProtocolError);
}

// ---------------------------------------------------------------------------
// Frontends: streaming over real sockets.

/// Minimal blocking wire client (framed send, decoder-driven recv).
class WireClient {
 public:
  explicit WireClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("client socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("client connect failed");
    }
    const int nodelay = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  }

  ~WireClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const Request& request) { send_raw(encode_request(request)); }

  /// Frames and sends raw payload bytes -- hostile encodings that the typed
  /// encoder refuses to produce go through here.
  void send_raw(std::string_view payload) {
    const std::string bytes = frame_payload(payload);
    std::size_t off = 0;
    while (off < bytes.size()) {
      const auto n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("client write failed");
      }
      off += static_cast<std::size_t>(n);
    }
  }

  std::optional<Response> recv(std::chrono::milliseconds deadline = 10000ms) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (queue_.empty()) {
      if (eof_) return std::nullopt;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          until - std::chrono::steady_clock::now());
      if (left <= 0ms) throw std::runtime_error("client recv deadline");
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
      char buf[1 << 16];
      const auto n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        eof_ = true;
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

  /// Drains one plot stream into `assembler`; returns the frame count.
  std::size_t drain_stream(PlotAssembler& assembler) {
    std::size_t frames = 0;
    while (true) {
      const auto response = recv();
      if (!response.has_value()) throw std::runtime_error("EOF mid-stream");
      EXPECT_EQ(response->status, Status::kOk) << response->text;
      ++frames;
      assembler.feed(*response);
      if (terminal_response_frame(*response)) return frames;
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  std::deque<Response> queue_;
  bool eof_ = false;
};

/// Engine + reactor frontend + run() thread.
struct Reactor {
  ComparisonEngine engine;
  FrontendServer server;
  std::thread thread;

  Reactor(EngineOptions engine_options, FrontendOptions frontend_options)
      : engine(std::move(engine_options)),
        server(engine, std::move(frontend_options)),
        thread([this] { server.run(); }) {}

  ~Reactor() {
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
  options.idle_timeout_ms = 0;
  options.read_timeout_ms = 0;
  return options;
}

TEST(AlignmentPlotFrontend, ReactorStreamsTilesAndKeepsServingAfterwards) {
  // Small tile budget: the plot must arrive as many frames, interleaved
  // through the reactor's paced stream path, then ordinary requests still
  // answer on the same connection.
  Reactor reactor(plot_engine(true, /*tile_cells=*/32), quiet_frontend());
  const Sequence a = random_seq(200, 131);
  const Sequence b = random_seq(200, 132);
  PlotSpec spec;
  spec.rows = 12;
  spec.cols = 12;
  spec.step = 8;
  spec.window = 24;

  WireClient client(reactor.port());
  client.send(plot_request(a, b, spec));
  PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
  const std::size_t frames = client.drain_stream(assembler);
  EXPECT_GT(frames, 1u);
  EXPECT_TRUE(assembler.complete());
  EXPECT_EQ(assembler.cell(0, 0), naive_cell(a, b, spec, 0, 0));
  EXPECT_EQ(assembler.cell(spec.rows - 1, spec.cols - 1),
            naive_cell(a, b, spec, spec.rows - 1, spec.cols - 1));

  Request ping;
  ping.op = Op::kPing;
  client.send(ping);
  const auto pong = client.recv();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->status, Status::kOk);
}

TEST(AlignmentPlotFrontend, ConcurrentClientStreamsAgainstOneReactor) {
  Reactor reactor(plot_engine(true, /*tile_cells=*/64), quiet_frontend());
  const Sequence a = random_seq(180, 141);
  const Sequence b = random_seq(180, 142);
  PlotSpec spec;
  spec.rows = 10;
  spec.cols = 10;
  spec.step = 6;
  spec.window = 20;
  const Index truth = naive_cell(a, b, spec, 0, 0);

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> completed{0};
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      WireClient client(reactor.port());
      client.send(plot_request(a, b, spec));
      PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
      client.drain_stream(assembler);
      EXPECT_TRUE(assembler.complete());
      EXPECT_EQ(assembler.cell(0, 0), truth);
      completed.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(completed.load(), kClients);
}

TEST(AlignmentPlotFrontend, HostilePlotRequestDiesAtDecodeWithOneErrorFrame) {
  Reactor reactor(plot_engine(), quiet_frontend());
  PlotSpec bad;
  bad.rows = 4;
  bad.cols = 4;
  bad.step = 2;
  bad.window = 8;
  const std::string good =
      encode_request(plot_request(random_seq(32, 151), random_seq(32, 152), bad));
  std::string hostile = good;
  // step := 0 (the third u32 of the 33-byte plot block, 9 bytes from the end).
  const std::size_t off = hostile.size() - 17 + 2 * 4;
  hostile[off] = '\0';
  hostile[off + 1] = '\0';
  hostile[off + 2] = '\0';
  hostile[off + 3] = '\0';

  ASSERT_THROW((void)decode_request(hostile), ProtocolError);  // hostile at decode

  WireClient client(reactor.port());
  client.send(plot_request(random_seq(32, 151), random_seq(32, 152), bad));
  PlotAssembler assembler(bad.rows, bad.cols, bad.quant);
  client.drain_stream(assembler);  // the well-formed plot streams fine

  // The hostile payload is well-framed, so the server answers one kError
  // frame (no tiles) and the connection keeps serving: decode rejection is a
  // request failure, not a stream poisoning.
  client.send_raw(hostile);
  const auto err = client.recv();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->status, Status::kError);
  EXPECT_FALSE(err->tile.has_value());

  Request ping;
  ping.op = Op::kPing;
  client.send(ping);
  const auto pong = client.recv();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->status, Status::kOk);
}

TEST(AlignmentPlotFrontend, ReactorTilesEqualEngineServiceStreamBytes) {
  // The reactor adds transport only: its tile frames are byte-for-byte the
  // frames a direct EngineService::stream emits for the same request.
  Reactor reactor(plot_engine(true, /*tile_cells=*/32), quiet_frontend());
  const Sequence a = random_seq(160, 161);
  const Sequence b = random_seq(160, 162);
  PlotSpec spec;
  spec.rows = 8;
  spec.cols = 8;
  spec.step = 9;
  spec.window = 16;
  const Request request = plot_request(a, b, spec);

  WireClient client(reactor.port());
  client.send(request);
  std::vector<std::string> served;
  while (true) {
    const auto response = client.recv();
    ASSERT_TRUE(response.has_value()) << "EOF mid-stream";
    served.push_back(encode_response(*response));
    if (terminal_response_frame(*response)) break;
  }

  EngineService direct(reactor.engine);
  std::vector<std::string> streamed;
  PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
  direct.stream(request, [&](Response&& frame) {
    streamed.push_back(encode_response(frame));
    assembler.feed(frame);
    return true;
  });
  EXPECT_GT(streamed.size(), 1u);
  EXPECT_EQ(served, streamed);
  ASSERT_TRUE(assembler.complete());
  EXPECT_EQ(assembler.cell(3, 4), naive_cell(a, b, spec, 3, 4));
}

// ---------------------------------------------------------------------------
// Shard router: stream relay and failover.

struct Backend {
  ComparisonEngine engine;
  FrontendServer server;
  std::thread thread;

  Backend()
      : engine(plot_engine(true, /*tile_cells=*/32)),
        server(engine, quiet_frontend()),
        thread([this] { server.run(); }) {}

  ~Backend() {
    if (thread.joinable()) {
      server.request_stop();
      thread.join();
    }
  }

  [[nodiscard]] int port() const { return server.port(); }
};

RouterOptions router_over(const std::vector<int>& ports) {
  RouterOptions options;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    options.shards.push_back(
        ShardConfig{static_cast<int>(i), "127.0.0.1", ports[i], 1});
  }
  return options;
}

TEST(AlignmentPlotRouter, RelaysTileStreamsAndStampsShardIds) {
  Backend b0;
  Backend b1;
  ShardRouter router(router_over({b0.port(), b1.port()}));
  const Sequence a = random_seq(150, 171);
  const Sequence b = random_seq(150, 172);
  PlotSpec spec;
  spec.rows = 8;
  spec.cols = 8;
  spec.step = 8;
  spec.window = 16;

  PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
  std::size_t frames = 0;
  bool terminal = false;
  router.route_stream(plot_request(a, b, spec), [&](Response&& response) {
    EXPECT_EQ(response.status, Status::kOk) << response.text;
    EXPECT_GE(response.shard, 0);  // every relayed frame carries the shard id
    ++frames;
    assembler.feed(response);
    terminal = terminal_response_frame(response);
    return true;
  });
  EXPECT_TRUE(terminal);
  EXPECT_GT(frames, 1u);
  EXPECT_TRUE(assembler.complete());
  EXPECT_EQ(assembler.cell(2, 5), naive_cell(a, b, spec, 2, 5));
}

TEST(AlignmentPlotRouter, FailsOverToTheReplicaWhenTheFirstCandidateIsDead) {
  // One dead port in the ring: whichever candidate order the hash picks, the
  // stream must complete off the live backend, possibly after a re-send.
  Backend live;
  RouterOptions options = router_over({live.port(), 1 /* nothing listens */});
  options.replicas = 2;
  options.connect_timeout_ms = 200;
  options.attempt_timeout_ms = 500;
  ShardRouter router(std::move(options));

  const Sequence a = random_seq(140, 181);
  const Sequence b = random_seq(140, 182);
  PlotSpec spec;
  spec.rows = 6;
  spec.cols = 6;
  spec.step = 8;
  spec.window = 16;

  for (int attempt = 0; attempt < 4; ++attempt) {
    PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
    bool terminal = false;
    Status final_status = Status::kOk;
    router.route_stream(plot_request(a, b, spec), [&](Response&& response) {
      final_status = response.status;
      if (response.status == Status::kOk) assembler.feed(response);
      terminal = terminal_response_frame(response);
      return true;
    });
    ASSERT_TRUE(terminal);
    ASSERT_EQ(final_status, Status::kOk);
    ASSERT_TRUE(assembler.complete());
    ASSERT_EQ(assembler.cell(1, 1), naive_cell(a, b, spec, 1, 1));
  }
}

TEST(AlignmentPlotRouter, CancelledSinkDiscardsTheBackendConnection) {
  Backend b0;
  ShardRouter router(router_over({b0.port()}));
  const Sequence a = random_seq(150, 191);
  const Sequence b = random_seq(150, 192);
  PlotSpec spec;
  spec.rows = 8;
  spec.cols = 8;
  spec.step = 8;
  spec.window = 16;

  std::size_t delivered = 0;
  router.route_stream(plot_request(a, b, spec),
                      [&](Response&&) { return ++delivered < 2; });
  EXPECT_EQ(delivered, 2u);

  // The router must still serve cleanly on a fresh exchange afterwards.
  PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
  bool terminal = false;
  router.route_stream(plot_request(a, b, spec), [&](Response&& response) {
    EXPECT_EQ(response.status, Status::kOk);
    assembler.feed(response);
    terminal = terminal_response_frame(response);
    return true;
  });
  EXPECT_TRUE(terminal);
  EXPECT_TRUE(assembler.complete());
}

}  // namespace
}  // namespace semilocal
