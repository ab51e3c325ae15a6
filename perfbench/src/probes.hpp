// Post-run layer probes: direct calls into single layers' public functions
// on the run's own inputs, timed in isolation (no server, no load), so a
// layer's cost is visible even where the end-to-end path hides it.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "engine/protocol.hpp"

namespace perfbench {

struct ProbeInputs {
  std::vector<std::pair<semilocal::Sequence, semilocal::Sequence>> pairs;
  std::vector<semilocal::Request> reads;     ///< sample of the run's read requests
  std::vector<std::string> responses;        ///< sample of the run's response payloads
  int route_port = 0;                        ///< > 0: also time a one-shard router to here
  std::uint64_t seed = 0;
};

/// core.comb_ns_per_cell[_loaded], core.index_build_ms, store.encode_ms,
/// store.compression_ratio, braid.compose_ms, corpus.upsert_ms,
/// query.batch_ns_per_window, protocol.decode_us, protocol.encode_us and
/// (route_port > 0) router.route_us, in that order.
std::vector<Metric> probe_layers(const ProbeInputs& inputs);

}  // namespace perfbench
