// The serving stack a workload runs against, built in-process.
//
// Untraced, a World is what `semilocal_serve` (and, routed,
// `semilocal_router`) would run: ComparisonEngine with the serve defaults,
// an engine-mode FrontendServer reactor, optionally a CorpusManager behind
// kUpsert, or a ShardRouter behind a handler-mode reactor over engine-mode
// backends. Traced, every reactor runs in handler mode over a Dispatcher:
// the same public engine, corpus and router calls the engine-mode reactor
// makes, each wrapped in a span. The pump hop handler mode adds is part of
// the tracing overhead the traced run reports.
//
// Every World owns a fresh directory for its store and corpus and removes
// it on destruction, so no run inherits kernels or braids from another.
#pragma once

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/corpus_version.hpp"
#include "engine/engine.hpp"
#include "engine/frontend.hpp"
#include "engine/shard/router.hpp"
#include "trace.hpp"

namespace perfbench {

struct WorldOptions {
  std::string dir;            ///< fresh directory; created, removed on destruction
  bool disk_store = false;    ///< persist kernels (v3) under dir/store
  bool corpus = false;        ///< CorpusManager under dir/corpus behind kUpsert
  int backends = 0;           ///< > 0: a router over this many engine backends
  Tracer* tracer = nullptr;   ///< non-null: handler-mode reactors with spans
  int traced_pumps = 4;       ///< pump threads of a traced reactor
};

/// A FrontendServer running its event loop on its own thread.
class ServerThread {
 public:
  explicit ServerThread(std::unique_ptr<semilocal::FrontendServer> server);
  ~ServerThread();
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;
  [[nodiscard]] int port() const { return server_->port(); }
  [[nodiscard]] semilocal::FrontendStats stats() const { return server_->stats(); }

 private:
  std::unique_ptr<semilocal::FrontendServer> server_;
  std::thread thread_;
};

class Dispatcher;

class World {
 public:
  explicit World(WorldOptions options);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// The port clients connect to (the router's when routed).
  [[nodiscard]] int port() const { return servers_.back()->port(); }
  [[nodiscard]] std::size_t engines() const { return engines_.size(); }
  [[nodiscard]] semilocal::ComparisonEngine& engine(std::size_t i = 0) { return *engines_[i]; }
  [[nodiscard]] semilocal::CorpusManager* corpus() { return corpus_.get(); }
  [[nodiscard]] semilocal::ShardRouter* router() { return router_.get(); }
  /// Counters of the reactor clients connect to.
  [[nodiscard]] semilocal::FrontendStats frontend_stats() const { return servers_.back()->stats(); }

 private:
  void shutdown();

  WorldOptions options_;
  std::vector<std::unique_ptr<semilocal::ComparisonEngine>> engines_;
  std::unique_ptr<semilocal::CorpusManager> corpus_;
  std::vector<std::unique_ptr<Dispatcher>> dispatchers_;
  std::unique_ptr<semilocal::ShardRouter> router_;
  std::vector<std::unique_ptr<ServerThread>> servers_;  ///< entry server last
};

/// Engine options of `semilocal_serve` with its defaults (memory store when
/// `store_dir` is empty).
semilocal::EngineOptions serve_engine_options(const std::string& store_dir);

}  // namespace perfbench
