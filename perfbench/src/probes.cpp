#include "probes.hpp"

#include <memory>
#include <thread>

#include "core/api.hpp"
#include "core/query_index.hpp"
#include "core/serialize.hpp"
#include "engine/corpus_version.hpp"
#include "engine/query.hpp"
#include "engine/shard/router.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace perfbench {

using namespace semilocal;

namespace {

/// Mean nanoseconds per call of `fn`, repeated until 2 ms have passed.
template <typename Fn>
double ns_per_call(Fn&& fn) {
  std::uint64_t calls = 0;
  const std::uint64_t start = mono_ns();
  std::uint64_t now = start;
  do {
    fn();
    ++calls;
    now = mono_ns();
  } while (now - start < 2'000'000);
  return static_cast<double>(now - start) / static_cast<double>(calls);
}

template <typename Fn>
double ns_once(Fn&& fn) {
  const std::uint64_t start = mono_ns();
  fn();
  return static_cast<double>(mono_ns() - start);
}

double cells_of(const std::pair<Sequence, Sequence>& p) {
  return static_cast<double>(p.first.size()) * static_cast<double>(p.second.size());
}

}  // namespace

std::vector<Metric> probe_layers(const ProbeInputs& in) {
  std::vector<Metric> out;

  // core: the scheduler's compute call, alone and with every core busy.
  std::vector<SemiLocalKernel> kernels;
  std::vector<double> comb;
  for (const auto& p : in.pairs) {
    SemiLocalKernel k;
    comb.push_back(ns_once([&] { k = semi_local_kernel(p.first, p.second); }) / cells_of(p));
    kernels.push_back(std::move(k));
  }
  const int threads = std::max(1, hardware_threads());
  std::vector<std::vector<double>> per_thread(static_cast<std::size_t>(threads));
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (const auto& p : in.pairs) {
          per_thread[static_cast<std::size_t>(t)].push_back(
              ns_once([&] { (void)semi_local_kernel(p.first, p.second); }) / cells_of(p));
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  std::vector<double> loaded;
  for (const auto& v : per_thread) loaded.insert(loaded.end(), v.begin(), v.end());
  out.push_back({"core.comb_ns_per_cell", median(comb), "ns"});
  out.push_back({"core.comb_ns_per_cell_loaded", median(loaded), "ns"});

  std::vector<double> index_ms;
  for (const SemiLocalKernel& k : kernels) {
    index_ms.push_back(ns_once([&] { QueryIndex index(k); (void)index.order(); }) / 1e6);
  }
  out.push_back({"core.index_build_ms", median(index_ms), "ms"});

  // store: the v3 encode every persisted kernel pays, and what it saves.
  std::vector<double> encode_ms;
  double raw_bytes = 0.0;
  double v3_bytes = 0.0;
  for (const SemiLocalKernel& k : kernels) {
    std::string bytes;
    encode_ms.push_back(ns_once([&] { bytes = save_kernel_bytes(k, KernelFormat::kV3Compressed); }) / 1e6);
    v3_bytes += static_cast<double>(bytes.size());
    raw_bytes += static_cast<double>(save_kernel_bytes(k, KernelFormat::kV2Raw).size());
  }
  out.push_back({"store.encode_ms", median(encode_ms), "ms"});
  out.push_back({"store.compression_ratio", ratio(raw_bytes, v3_bytes), "ratio"});

  // braid: one steady-ant composition of the append shape -- the pair
  // kernel of a[0, m - 1024) composed with the strip of its last 1024.
  std::vector<double> compose_ms;
  AntWorkspace workspace;
  const SteadyAntOptions ant{.precalc = true, .preallocate = true};
  for (const auto& [a, b] : in.pairs) {
    const std::size_t split = a.size() > 2048 ? a.size() - 1024 : a.size() / 2;
    const SemiLocalKernel head = semi_local_kernel(SequenceView(a.data(), split), b);
    const SemiLocalKernel tail = semi_local_kernel(SequenceView(a.data() + split, a.size() - split), b);
    std::vector<double> reps;
    for (int r = 0; r < 3; ++r) {
      reps.push_back(ns_once([&] { (void)compose_horizontal(head, tail, ant, &workspace); }) / 1e6);
    }
    compose_ms.push_back(median(reps));
  }
  out.push_back({"braid.compose_ms", median(compose_ms), "ms"});

  // corpus: a document upserted against one reference, then one appended
  // chunk -- the strip comb, steady-ant composition and publish an append
  // costs. Memory store: this times the corpus, not the disk.
  std::vector<double> upsert_ms;
  Rng chunk_rng(in.seed + 1);
  for (const auto& [a, b] : in.pairs) {
    EngineOptions options;
    options.scheduler.workers = hardware_threads();
    ComparisonEngine engine(options);
    CorpusManager corpus(engine, CorpusManagerOptions{});
    corpus.upsert_document("ref", b);
    Sequence doc = a;
    corpus.upsert_document("doc", doc);  // "doc" < "ref": doc is the chunked side
    for (int k = 0; k < 1024; ++k) doc.push_back("ACGT"[chunk_rng.uniform(0, 3)]);
    upsert_ms.push_back(ns_once([&] { corpus.upsert_document("doc", doc); }) / 1e6);
  }
  out.push_back({"corpus.upsert_ms", median(upsert_ms), "ms"});

  // query: the interleaved batch descent over each kernel's index.
  Rng rng(in.seed);
  std::vector<double> batch_ns;
  for (const SemiLocalKernel& k : kernels) {
    const CachedKernel entry(std::make_shared<const SemiLocalKernel>(k));
    (void)entry.index();
    std::vector<WindowQuery> windows(256);
    for (WindowQuery& w : windows) {
      w.kind = QueryKind::kStringSubstring;
      w.x = rng.uniform(0, k.n() / 2);
      w.y = rng.uniform(w.x, k.n());
    }
    std::vector<Index> answers(windows.size());
    batch_ns.push_back(ns_per_call([&] {
                         answer_query_batch(entry, windows.data(), answers.data(), windows.size(),
                                            /*use_index=*/true);
                       }) /
                       static_cast<double>(windows.size()));
  }
  out.push_back({"query.batch_ns_per_window", median(batch_ns), "ns"});

  // protocol: the server's request decode and response encode.
  std::vector<double> decode_us;
  for (const Request& r : in.reads) {
    const std::string payload = encode_request(r);
    decode_us.push_back(ns_per_call([&] { (void)decode_request(payload); }) / 1e3);
  }
  std::vector<double> encode_us;
  for (const std::string& payload : in.responses) {
    const Response response = decode_response(payload);
    encode_us.push_back(ns_per_call([&] { (void)encode_response(response); }) / 1e3);
  }
  out.push_back({"protocol.decode_us", median(decode_us), "us"});
  out.push_back({"protocol.encode_us", median(encode_us), "us"});

  // router: one shard, so every call is lease + forward + relay to the
  // workload's own server.
  if (in.route_port > 0) {
    RouterOptions options;
    ShardConfig shard;
    shard.port = in.route_port;
    options.shards.push_back(shard);
    options.replicas = 1;
    ShardRouter router(options);
    std::vector<double> route_us;
    for (const Request& r : in.reads) {
      (void)router.route(r);  // connection dial + first touch
      route_us.push_back(ns_per_call([&] { (void)router.route(r); }) / 1e3);
    }
    out.push_back({"router.route_us", median(route_us), "us"});
  }
  return out;
}

}  // namespace perfbench
