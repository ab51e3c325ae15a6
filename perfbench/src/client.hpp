// The benchmark's load generator: one client thread, at most a few persistent
// connections, open loop on a due-time schedule or closed loop with a fixed
// window of outstanding requests per connection.
//
// Open loop: request i is due at start + i / rate, whatever happened to the
// earlier ones. Its latency runs from that due time to its terminal frame,
// so a stall charges its queueing to every request scheduled behind it; the
// gap between due time and actual send is the generator's own lateness,
// reported separately so a run whose client fell behind can be refused.
//
// Closed loop: each connection keeps `window` requests outstanding and
// sends the next one when a response completes; latency runs from send.
//
// Frames go out through the public frame_payload and come back through
// FrameDecoder + decode_response; responses match requests FIFO per
// connection, as the protocol guarantees. Plot streams are reassembled
// with PlotAssembler and complete on their terminal tile.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/protocol.hpp"

namespace perfbench {

enum class OpClass : std::uint8_t { kRead = 0, kPlot = 1, kWrite = 2 };

/// One request of the seeded stream, as the workload prepared it.
struct Outgoing {
  std::string payload;                   ///< encoded request; the client stamps the id
  OpClass cls = OpClass::kRead;
  std::uint32_t tag = 0;                 ///< workload's own reference, handed back
  semilocal::Index plot_rows = 0;        ///< plot grid, for reassembly
  semilocal::Index plot_cols = 0;
};

enum class Outcome : std::uint8_t {
  kOk = 0,
  kError = 1,       ///< kError frame
  kRetryAfter = 2,  ///< kOverloaded frame
  kBroken = 3,      ///< decode error, closed socket or never answered
};

/// Request i of a stream carries id kFirstRequestId + i; id 0 is left to
/// traffic outside the stream (prewarm).
constexpr std::uint64_t kFirstRequestId = 1;

struct RequestRecord {
  std::uint64_t id = 0;
  std::uint32_t tag = 0;
  OpClass cls = OpClass::kRead;
  Outcome outcome = Outcome::kBroken;
  std::int32_t shard = -1;
  std::uint64_t due_ns = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t done_ns = 0;
};

struct LoadOptions {
  int port = 0;
  std::size_t connections = 4;
  bool closed_loop = false;
  double rate = 1000.0;        ///< open loop: requests per second, all connections
  std::size_t window = 1;      ///< closed loop: outstanding requests per connection
  double seconds = 10.0;       ///< timed window
  /// The i-th request of the stream (called once per send, in order).
  std::function<Outgoing(std::uint64_t i)> next;
  /// Called on each request's terminal frame; `grid` is the reassembled
  /// plot (plots only). Returns false for a wrong answer.
  std::function<bool(const Outgoing&, const semilocal::Response&,
                     const semilocal::PlotAssembler* grid)>
      verify;
};

struct LoadResult {
  std::vector<RequestRecord> records;  ///< one per request sent, in send order
  std::vector<double> gen_late_ms;     ///< open loop: send time minus due time
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;            ///< end of the timed window
  std::uint64_t wrong = 0;             ///< kOk answers the oracle refused
  std::uint64_t request_bytes = 0;     ///< payload bytes sent
  std::vector<std::string> sample_responses;  ///< first response payloads, for probes
  std::vector<CpuSample> cpu;          ///< VM CPU counters, every 100 ms of the window
};

/// Runs one measurement against 127.0.0.1:port. Throws std::runtime_error
/// if a connection cannot be set up.
LoadResult run_load(const LoadOptions& options);

/// Writes `id` into an encoded request's x field (bytes 1..8, little
/// endian; see the request layout in engine/protocol.hpp).
void stamp_request_id(std::string& payload, std::uint64_t id);

}  // namespace perfbench
