// The four workloads: seeded inputs, the world each runs against, its load
// shape, its oracles and its per-run invariants.
//
//   warm_read     open loop; kLcs + kBatchQuery + a few kAlignmentPlot over a
//                 prewarmed pool in a memory store -- the warm socket path
//   cold_compare  closed loop; kLcs on never-seen pairs, disk v3 store --
//                 the compute path
//   edit_read     open loop; kUpsert edit script on a live document mixed
//                 with reads of the current documents, disk store + corpus
//   routed_read   open loop; the warm kLcs + kBatchQuery mix through the
//                 shard router to two in-process backends
//
// A workload's oracles never consult the serving stack: kLcs answers are
// checked against the bit-parallel LCS baseline (src/lcs), sampled batch
// windows and plot cells against the same baseline on the window's own
// substrings, and edit_read's final pair kernels bit for bit against a
// fresh semi_local_kernel.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client.hpp"
#include "common.hpp"
#include "world.hpp"

namespace perfbench {

/// Which expected value a self-test deliberately corrupts; kRequest instead
/// corrupts a request, so that the server refuses it.
enum class Corrupt { kNone, kLcs, kWindow, kPlot, kKernel, kRequest };

/// Counters of one world, read through the public stats() calls.
struct Snapshot {
  std::vector<semilocal::EngineStats> engines;  ///< backends, when routed
  semilocal::FrontendStats frontend;            ///< the entry reactor
  semilocal::RouterStats router;
};
Snapshot snapshot(World& world);

/// What a workload's own checks found after a run.
struct CheckResult {
  std::uint64_t wrong = 0;              ///< answers an oracle refused
  std::vector<std::string> violations;  ///< invariants that did not hold
  std::vector<std::string> notes;       ///< invariants that held, as evidence
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Seeded inputs for a run of `seconds`, replacing any earlier ones. Part
  /// of setup_s. `corrupt` names the expected value a self-test falsifies.
  virtual void generate(std::uint64_t seed, double seconds, Corrupt corrupt) = 0;

  /// Reference values the oracles need before the run starts. Not part of
  /// setup_s; checks that need only the answers run after the window.
  virtual void compute_oracle() {}

  /// The world this workload runs against (dir and tracer filled in by the
  /// caller).
  [[nodiscard]] virtual WorldOptions world() const = 0;

  /// Brings a fresh world to the measured state: prewarm or initial corpus
  /// build. Part of setup_s.
  virtual void prepare(World& world) = 0;

  /// Load shape with next/verify bound to this workload. Resets per-run
  /// state, so one workload can drive several passes.
  virtual LoadOptions load(int port, double seconds) = 0;

  /// Deferred oracle checks and invariants, with the counters around the
  /// timed window.
  virtual CheckResult check(World& world, const LoadResult& load, const Snapshot& before,
                            const Snapshot& after) = 0;

  /// Cells combed when the request tagged `tag` missed the cache (m * n).
  [[nodiscard]] virtual double cells(std::uint32_t tag) const = 0;

  /// Sample of this workload's own pairs, for the layer probes.
  [[nodiscard]] virtual std::vector<std::pair<semilocal::Sequence, semilocal::Sequence>>
  probe_pairs() const = 0;

  /// Sample of this workload's read requests (ids unset), for the
  /// protocol and router probes.
  [[nodiscard]] virtual std::vector<semilocal::Request> probe_reads() const = 0;

  /// braid.composes (per upsert), corpus.chunks_computed and
  /// corpus.chunk_reuse_ratio from the last pass's upsert reports; zero on
  /// workloads that send no upserts.
  [[nodiscard]] virtual std::vector<Metric> corpus_layers() const {
    return {{"braid.composes", 0.0, "count"},
            {"corpus.chunks_computed", 0.0, "count"},
            {"corpus.chunk_reuse_ratio", 0.0, "ratio"}};
  }

  /// Whether this workload has an expected value of that kind to corrupt.
  [[nodiscard]] virtual bool supports(Corrupt corrupt) const = 0;

  [[nodiscard]] virtual bool has_plots() const { return false; }
  [[nodiscard]] virtual bool has_writes() const { return false; }
};

std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
