#include "world.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "util/parallel.hpp"

namespace perfbench {

using namespace semilocal;

namespace {

Response error_response(const std::string& text) {
  Response response;
  response.status = Status::kError;
  response.text = text;
  return response;
}

Response overloaded_response(const EngineOverloaded& e) {
  Response response;
  response.status = Status::kOverloaded;
  response.retry_ms = std::max<Index>(1, e.retry_after_ms());
  response.text = e.what();
  return response;
}

QueryKind kind_of(Op op) {
  switch (op) {
    case Op::kStringSubstring:
      return QueryKind::kStringSubstring;
    case Op::kSubstringString:
      return QueryKind::kSubstringString;
    default:
      return QueryKind::kLcs;
  }
}

std::uint64_t request_id(const Request& request) { return static_cast<std::uint64_t>(request.x); }

}  // namespace

/// The engine-mode reactor's dispatch, made of the same public calls, each
/// inside a span: digest, cache/disk lookup, scheduler wait on a miss, then
/// the indexed answer; upserts through the corpus; plots streamed by the
/// engine.
class Dispatcher {
 public:
  Dispatcher(ComparisonEngine& engine, CorpusManager* corpus, Tracer* tracer)
      : engine_(engine), corpus_(corpus), tracer_(tracer) {}

  Response handle(const Request& request) {
    const std::uint64_t id = request_id(request);
    Span root(tracer_, "dispatch.handle", id);
    try {
      switch (request.op) {
        case Op::kPing:
          return Response{};
        case Op::kStats: {
          Response response;
          response.text = stats_json(engine_.stats());
          return response;
        }
        case Op::kUpsert: {
          if (corpus_ == nullptr) return error_response("upsert: no corpus attached");
          Span span(tracer_, "corpus.upsert", id);
          const UpsertReport report =
              corpus_->upsert_document(to_string(request.a), request.b);
          Response response;
          response.value = report.version;
          response.text = report.json();
          return response;
        }
        case Op::kLcs:
        case Op::kStringSubstring:
        case Op::kSubstringString:
        case Op::kBatchQuery:
          return query(request, id);
        default:
          return error_response("dispatch: unsupported op");
      }
    } catch (const EngineOverloaded& e) {
      return overloaded_response(e);
    } catch (const std::exception& e) {
      return error_response(e.what());
    }
  }

  void stream(const Request& request, const std::function<bool(Response&&)>& sink) {
    const std::uint64_t id = request_id(request);
    Span root(tracer_, "dispatch.stream", id);
    if (request.op != Op::kAlignmentPlot || !request.plot) {
      sink(handle(request));
      return;
    }
    try {
      Span span(tracer_, "query.plot", id);
      engine_.alignment_plot(request.a, request.b, *request.plot, [&](PlotTile&& tile) {
        Response response;
        response.tile = std::move(tile);
        return sink(std::move(response));
      });
    } catch (const EngineOverloaded& e) {
      sink(overloaded_response(e));
    } catch (const std::exception& e) {
      sink(error_response(e.what()));
    }
  }

 private:
  Response query(const Request& request, std::uint64_t id) {
    PairKey key;
    {
      Span span(tracer_, "key.digest", id);
      key = make_pair_key(request.a, request.b);
    }
    CachedKernelPtr entry;
    {
      Span span(tracer_, "store.find", id);
      entry = engine_.store().find(key);
    }
    if (entry == nullptr) {
      Span span(tracer_, "scheduler.wait", id);
      entry = engine_.entry_async(request.a, request.b).get();
    }
    Response response;
    if (request.op == Op::kBatchQuery) {
      Span span(tracer_, "query.batch", id);
      response.values = engine_.answer_batch(*entry, request.windows);
      response.value = static_cast<Index>(response.values.size());
    } else {
      Span span(tracer_, "query.answer", id);
      response.value = engine_.answer(*entry, kind_of(request.op), request.x, request.y);
    }
    return response;
  }

  ComparisonEngine& engine_;
  CorpusManager* corpus_;
  Tracer* tracer_;
};

EngineOptions serve_engine_options(const std::string& store_dir) {
  EngineOptions options;  // semilocal_serve: every other default is the struct's
  options.store.dir = store_dir;
  options.scheduler.workers = hardware_threads();
  return options;
}

ServerThread::ServerThread(std::unique_ptr<FrontendServer> server)
    : server_(std::move(server)) {
  thread_ = std::thread([s = server_.get()] {
    try {
      s->run();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: server loop failed: %s\n", e.what());
    }
  });
}

ServerThread::~ServerThread() {
  server_->request_stop();
  thread_.join();
}

World::World(WorldOptions options) : options_(std::move(options)) {
  namespace fs = std::filesystem;
  fs::remove_all(options_.dir);
  fs::create_directories(options_.dir);
  try {
    const auto serve_engine = [&](FrontendOptions frontend, ComparisonEngine& engine,
                                  CorpusManager* corpus) {
      if (options_.tracer == nullptr) {
        frontend.corpus = corpus;
        return std::make_unique<FrontendServer>(engine, std::move(frontend));
      }
      auto dispatcher = std::make_unique<Dispatcher>(engine, corpus, options_.tracer);
      Dispatcher* d = dispatcher.get();
      dispatchers_.push_back(std::move(dispatcher));
      frontend.pump_threads = options_.traced_pumps;
      frontend.handler = [d](const Request& request) { return d->handle(request); };
      frontend.stream_handler = [d](const Request& request,
                                    const std::function<bool(Response&&)>& sink) {
        d->stream(request, sink);
      };
      return std::make_unique<FrontendServer>(std::move(frontend));
    };

    if (options_.backends == 0) {
      const std::string store_dir = options_.disk_store ? options_.dir + "/store" : "";
      engines_.push_back(std::make_unique<ComparisonEngine>(serve_engine_options(store_dir)));
      if (options_.corpus) {
        CorpusManagerOptions corpus_options;  // semilocal_serve --corpus-dir defaults
        corpus_options.dir = options_.dir + "/corpus";
        fs::create_directories(corpus_options.dir);
        corpus_ = std::make_unique<CorpusManager>(*engines_[0], corpus_options);
      }
      servers_.push_back(std::make_unique<ServerThread>(
          serve_engine(FrontendOptions{}, *engines_[0], corpus_.get())));
      return;
    }

    RouterOptions router_options;  // semilocal_router defaults
    router_options.probe_interval_ms = 1'000;
    for (int b = 0; b < options_.backends; ++b) {
      engines_.push_back(std::make_unique<ComparisonEngine>(serve_engine_options("")));
      servers_.push_back(std::make_unique<ServerThread>(
          serve_engine(FrontendOptions{}, *engines_.back(), nullptr)));
      ShardConfig shard;
      shard.id = b;
      shard.port = servers_.back()->port();
      router_options.shards.push_back(shard);
    }
    router_ = std::make_unique<ShardRouter>(std::move(router_options));
    FrontendOptions frontend;
    frontend.pump_threads = 8;  // semilocal_router --pumps default
    ShardRouter* router = router_.get();
    Tracer* tracer = options_.tracer;
    frontend.handler = [router, tracer](const Request& request) {
      Span span(tracer, "router.route", request_id(request));
      return router->route(request);
    };
    frontend.stream_handler = [router](const Request& request,
                                       const std::function<bool(Response&&)>& sink) {
      router->route_stream(request, sink);
    };
    servers_.push_back(std::make_unique<ServerThread>(
        std::make_unique<FrontendServer>(std::move(frontend))));
  } catch (...) {
    shutdown();
    throw;
  }
}

World::~World() { shutdown(); }

void World::shutdown() {
  while (!servers_.empty()) servers_.pop_back();  // entry server first
  router_.reset();
  corpus_.reset();
  dispatchers_.clear();
  engines_.clear();
  std::error_code ignored;
  std::filesystem::remove_all(options_.dir, ignored);
}

}  // namespace perfbench
