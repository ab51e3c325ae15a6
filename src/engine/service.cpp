#include "engine/service.hpp"

#include <chrono>
#include <future>
#include <istream>
#include <ostream>

#include "engine/corpus_version.hpp"
#include "engine/engine.hpp"
#include "util/fasta.hpp"

namespace semilocal {
namespace {

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

Response text_response(std::string text) {
  Response response;
  response.text = std::move(text);
  return response;
}

/// A query answered off an acquired entry. Throws on bad windows.
Response answer(ComparisonEngine& engine, const CachedKernel& entry, const Request& request) {
  Response response;
  if (request.op == Op::kBatchQuery) {
    response.values = engine.answer_batch(entry, request.windows);
    response.value = static_cast<Index>(response.values.size());
  } else {
    response.value = engine.answer(entry, kind_of(request.op), request.x, request.y);
  }
  return response;
}

}  // namespace

Response Service::handle(Request request) {
  Admission admission = admit(std::move(request), /*has_budget=*/true);
  if (admission.kind != Admission::Kind::kDefer) return std::move(admission.response);
  const std::atomic<bool> never_stop{false};
  return *admission.later(never_stop);
}

Admission EngineService::admit(Request&& request, bool has_budget) {
  switch (request.op) {
    case Op::kPing:
      return Admission::reply(Response{});
    case Op::kStats:
      return Admission::reply(text_response(stats_json(engine_.stats())));
    case Op::kHealth:
      return Admission::reply(text_response(health_json(engine_.stats())));
    case Op::kShardCtl:
      return Admission::reply(error_response("shardctl: not a router"));
    case Op::kAlignmentPlot:
      return Admission::reply(error_response("plot: streamed, not a single frame"));
    default:
      break;
  }
  if (!has_budget) return {};  // kRefused
  if (request.op == Op::kUpsert) {
    // Upserts comb dirty chunks and compose braids: milliseconds of compute,
    // always deferred. `a` is the document id (raw bytes, never packed).
    request.b = ingest(dna_, std::move(request.b));
    return Admission::defer(Continuation(
        [this, request = std::move(request)](const std::atomic<bool>&) mutable {
          return std::optional<Response>(guarded([&] {
            if (corpus_ == nullptr) return error_response("upsert: no corpus attached");
            const UpsertReport report =
                corpus_->upsert_document(to_string(request.a), std::move(request.b));
            Response response = text_response(report.json());
            response.value = report.version;
            return response;
          }));
        }));
  }
  request.a = ingest(dna_, std::move(request.a));
  request.b = ingest(dna_, std::move(request.b));
  std::shared_future<CachedKernelPtr> future;
  Response refusal = guarded([&] {
    future = engine_.entry_async(request.a, request.b);
    return Response{};
  });
  if (!future.valid()) return Admission::reply(std::move(refusal));
  if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
    // Warm: answer now. Queries off a cached entry are O(log n) descents --
    // microseconds. A pair's first window query must build its QueryIndex
    // first, though (and decode a compressed entry), and that build is
    // deferred like a cold compute.
    bool builds_index = false;
    Response now = guarded([&] {
      const CachedKernel& entry = *future.get();
      builds_index = query_builds_index(entry, request.op != Op::kLcs);
      return builds_index ? Response{} : answer(engine_, entry, request);
    });
    if (!builds_index) return Admission::answer(std::move(now));
  }
  return Admission::defer(Continuation(
      [this, future = std::move(future), request = std::move(request)](
          const std::atomic<bool>& stop) -> std::optional<Response> {
        if (drain_inline_) engine_.drain();
        while (future.wait_for(std::chrono::milliseconds(50)) != std::future_status::ready) {
          if (stop.load(std::memory_order_relaxed)) return std::nullopt;
          if (drain_inline_) engine_.drain();
        }
        return guarded([&] { return answer(engine_, *future.get(), request); });
      }));
}

void EngineService::stream(const Request& request, const TileSink& sink) {
  Response failure = guarded([&] {
    if (!request.plot) throw std::out_of_range("plot request without a plot spec");
    if (drain_inline_) engine_.drain();
    engine_.alignment_plot(
        ingest(dna_, request.a), ingest(dna_, request.b), *request.plot,
        [&](PlotTile&& tile) {
          Response frame;
          frame.tile = std::move(tile);
          return sink(std::move(frame));
        },
        drain_inline_);
    return Response{};
  });
  // A failed spec or an overload ends the stream as its terminal frame.
  if (failure.status != Status::kOk) (void)sink(std::move(failure));
}

void serve_stream(Service& service, std::istream& in, std::ostream& out) {
  const auto send = [&out](const Response& response) {
    write_frame(out, encode_response(response));
    return true;
  };
  while (true) {
    std::optional<std::string> payload;
    try {
      payload = read_frame(in);
    } catch (const ProtocolError& e) {
      // The stream is unframed from here on; report and hang up.
      try {
        send(error_response(e.what()));
      } catch (const std::exception&) {
      }
      return;
    }
    if (!payload) return;  // clean EOF
    Request request;
    try {
      request = decode_request(*payload);
    } catch (const ProtocolError& e) {
      send(error_response(e.what()));
      continue;
    }
    if (request.op == Op::kAlignmentPlot) {
      // Tiles are written as they compute; the blocking write is the
      // backpressure.
      service.stream(request, [&send](Response&& frame) { return send(frame); });
    } else {
      send(service.handle(std::move(request)));
    }
  }
}

}  // namespace semilocal
