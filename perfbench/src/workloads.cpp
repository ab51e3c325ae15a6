#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>
#include <thread>

#include "core/api.hpp"
#include "lcs/bitparallel.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace perfbench {

using namespace semilocal;

namespace {

// ---------------------------------------------------------------------------
// Seeded helpers.

/// splitmix64 of (seed, i, salt): the stream's per-request coin, so request
/// i of a seed is the same in every pass without storing the stream.
std::uint64_t mix(std::uint64_t seed, std::uint64_t i, std::uint64_t salt = 0) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (i + 1) + 0xbf58476d1ce4e5b9ULL * salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit(std::uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

Sequence random_dna(Index n, Rng& rng) {
  static constexpr char kBases[] = "ACGT";
  Sequence s(static_cast<std::size_t>(n));
  for (Symbol& c : s) c = kBases[rng.uniform(0, 3)];
  return s;
}

/// Runs tasks on every hardware thread; used for oracle values only.
void parallel_run(std::vector<std::function<void()>>& tasks) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  const int n = std::max(1, hardware_threads());
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < tasks.size(); i = next++) tasks[i]();
    });
  }
  for (std::thread& t : threads) t.join();
}

SequenceView slice(const Sequence& s, Index lo, Index hi) {
  return SequenceView(s.data() + lo, static_cast<std::size_t>(hi - lo));
}

/// Independent answer to one window query: the bit-parallel LCS baseline on
/// the window's own substrings.
Index oracle_window(const Sequence& a, const Sequence& b, const WindowQuery& w) {
  switch (w.kind) {
    case QueryKind::kStringSubstring:
      return lcs_bitparallel_hyyro(a, slice(b, w.x, w.y));
    case QueryKind::kSubstringString:
      return lcs_bitparallel_hyyro(slice(a, w.x, w.y), b);
    default:
      return lcs_bitparallel_hyyro(a, b);
  }
}

std::vector<WindowQuery> random_windows(const Sequence& a, const Sequence& b, std::size_t count,
                                        Rng& rng) {
  std::vector<WindowQuery> windows(count);
  for (WindowQuery& w : windows) {
    const bool over_b = rng.bernoulli(0.5);
    const auto len = static_cast<Index>(over_b ? b.size() : a.size());
    const Index width = rng.uniform(std::min<Index>(64, len), std::min<Index>(len, 4096));
    w.kind = over_b ? QueryKind::kStringSubstring : QueryKind::kSubstringString;
    w.x = rng.uniform(0, len - width);
    w.y = w.x + width;
  }
  return windows;
}

Request read_request(const Sequence& a, const Sequence& b) {
  Request request;
  request.op = Op::kLcs;
  request.a = a;
  request.b = b;
  return request;
}

/// Encodes a request and checks that its id field is the one the client
/// rewrites (a protocol layout change must not silently mis-stamp ids).
std::string encode_checked(const Request& request) {
  std::string payload = encode_request(request);
  stamp_request_id(payload, 0x0102030405060708ULL);
  if (decode_request(payload).x != 0x0102030405060708LL) {
    throw std::runtime_error("request layout: x is not at bytes 1..8");
  }
  return payload;
}

std::uint64_t json_field(const std::string& json, const std::string& key) {
  const auto at = json.find("\"" + key + "\": ");
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + key.size() + 4));
}

template <typename T>
std::uint64_t delta(T after, T before) {
  return after >= before ? static_cast<std::uint64_t>(after - before) : 0;
}

// ---------------------------------------------------------------------------
// warm_read and routed_read: a prewarmed pool of pairs whose lengths span
// 1k..16k symbols, read with kLcs and batches of hundreds of windows (plus,
// on warm_read, a small share of alignment plots over prewarmed strips).

struct PoolPair {
  Sequence a;
  Sequence b;
};

struct Template {
  Request request;
  std::string payload;
  OpClass cls = OpClass::kRead;
  std::uint32_t pair = 0;
  Index expected = -1;                                        ///< kLcs
  std::vector<std::pair<std::uint32_t, Index>> window_checks;  ///< batch: (window, LCS)
  std::vector<std::array<Index, 3>> cell_checks;               ///< plot: (u, v, LCS)
};

class PoolWorkload : public Workload {
 public:
  PoolWorkload(bool routed, double rate) : routed_(routed), rate_(rate) {}

  const char* name() const override { return routed_ ? "routed_read" : "warm_read"; }
  bool has_plots() const override { return !routed_; }
  bool supports(Corrupt c) const override {
    return c == Corrupt::kLcs || c == Corrupt::kWindow || c == Corrupt::kRequest ||
           (c == Corrupt::kPlot && !routed_);
  }

  void generate(std::uint64_t seed, double, Corrupt corrupt) override {
    seed_ = seed;
    corrupt_ = corrupt;
    pool_.clear();
    templates_.clear();
    lcs_.clear();
    batch_.clear();
    plots_.clear();
    Rng rng(seed);
    // The shape is fixed and only the symbols are seeded, so seeds differ
    // in content, not in how much work they ask for: kSizes length classes
    // log-spaced over 1k..16k (a = 1000 * 16^((c + 0.5) / kSizes), b 10%
    // longer), kPerSize pairs of each so that every class spreads over both
    // shards of routed_read. Each pair has one kLcs template and one batch
    // template; the four pairs of a class carry 100, 200, 300 and 400
    // windows.
    for (int c = 0; c < kSizes; ++c) {
      const auto m = static_cast<Index>(1000.0 * std::pow(16.0, (c + 0.5) / kSizes));
      for (int k = 0; k < kPerSize; ++k) {
        const Sequence a = random_dna(m, rng);
        pool_.push_back({a, random_dna(m + m / 10, rng)});
      }
    }
    for (std::uint32_t p = 0; p < pool_.size(); ++p) {
      Template t;
      t.pair = p;
      t.request = read_request(pool_[p].a, pool_[p].b);
      lcs_.push_back(templates_.size());
      templates_.push_back(std::move(t));
    }
    for (std::uint32_t p = 0; p < pool_.size(); ++p) {
      const std::size_t windows = 100 * (1 + p % kPerSize);
      Template t;
      t.pair = p;
      const PoolPair& pp = pool_[p];
      t.request.op = Op::kBatchQuery;
      t.request.a = pp.a;
      t.request.b = pp.b;
      t.request.windows = random_windows(pp.a, pp.b, windows, rng);
      for (int c = 0; c < 2; ++c) {
        t.window_checks.emplace_back(
            static_cast<std::uint32_t>(rng.uniform(0, static_cast<Index>(windows) - 1)), -1);
      }
      if (corrupt == Corrupt::kRequest && p == 0) {
        // A window past the end of b: the server answers every send of this
        // batch with kError, which must fail the run.
        t.request.windows[0] = {QueryKind::kStringSubstring, 0, static_cast<Index>(pp.b.size()) + 1};
        std::erase_if(t.window_checks, [](const auto& c) { return c.first == 0; });
      }
      batch_.push_back(templates_.size());
      templates_.push_back(std::move(t));
    }
    if (!routed_) {
      // Plots over the three shortest pairs: two dense grids (64-symbol
      // windows every 16, where the seam walk shares descents along a row)
      // and one sparse grid (128-symbol windows every 96, lowered cell by
      // cell).
      std::vector<std::uint32_t> order(pool_.size());
      for (std::uint32_t p = 0; p < pool_.size(); ++p) order[p] = p;
      std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
        return pool_[x].a.size() * pool_[x].b.size() < pool_[y].a.size() * pool_[y].b.size();
      });
      for (int k = 0; k < 3; ++k) {
        Template t;
        t.cls = OpClass::kPlot;
        t.pair = order[static_cast<std::size_t>(k)];
        const PoolPair& pp = pool_[t.pair];
        PlotSpec spec;
        spec.window = k < 2 ? 64 : 128;
        spec.step = k < 2 ? 16 : 96;
        spec.rows = std::min<Index>(32, (static_cast<Index>(pp.a.size()) - spec.window) / spec.step + 1);
        spec.cols = std::min<Index>(32, (static_cast<Index>(pp.b.size()) - spec.window) / spec.step + 1);
        t.request.op = Op::kAlignmentPlot;
        t.request.a = pp.a;
        t.request.b = pp.b;
        t.request.plot = spec;
        for (int c = 0; c < 4; ++c) {
          t.cell_checks.push_back({rng.uniform(0, spec.rows - 1), rng.uniform(0, spec.cols - 1), -1});
        }
        plots_.push_back(templates_.size());
        templates_.push_back(std::move(t));
      }
    }
    for (Template& t : templates_) t.payload = encode_checked(t.request);
  }

  void compute_oracle() override {
    std::vector<std::function<void()>> oracle;
    for (Template& t : templates_) {
      const PoolPair& pp = pool_[t.pair];
      if (t.request.op == Op::kLcs) {
        oracle.emplace_back([&t, &pp] { t.expected = lcs_bitparallel_hyyro(pp.a, pp.b); });
      }
      for (auto& check : t.window_checks) {
        oracle.emplace_back([&t, &pp, &check] {
          check.second = oracle_window(pp.a, pp.b, t.request.windows[check.first]);
        });
      }
      for (auto& cell : t.cell_checks) {
        oracle.emplace_back([&t, &pp, &cell] {
          const PlotSpec& s = *t.request.plot;
          cell[2] = lcs_bitparallel_hyyro(slice(pp.a, s.row_start(cell[0]), s.row_start(cell[0]) + s.window),
                                          slice(pp.b, s.col_start(cell[1]), s.col_start(cell[1]) + s.window));
        });
      }
    }
    parallel_run(oracle);
    if (corrupt_ == Corrupt::kLcs) templates_[lcs_[0]].expected += 1;
    if (corrupt_ == Corrupt::kWindow) templates_[batch_[0]].window_checks[0].second += 1;
    if (corrupt_ == Corrupt::kPlot && !plots_.empty()) templates_[plots_[0]].cell_checks[0][2] += 1;
  }

  WorldOptions world() const override {
    WorldOptions options;
    options.backends = routed_ ? 2 : 0;
    return options;
  }

  void prepare(World& world) override {
    if (routed_) {
      // Twice through the router: the first computes on the key's primary
      // shard, the second waits out its query index build.
      for (int round = 0; round < 2; ++round) {
        for (const PoolPair& pp : pool_) {
          const Response r = world.router()->route(read_request(pp.a, pp.b));
          if (r.status != Status::kOk) throw std::runtime_error("prewarm through router failed");
        }
      }
      return;
    }
    ComparisonEngine& engine = world.engine();
    std::vector<std::shared_future<CachedKernelPtr>> futures;
    for (const PoolPair& pp : pool_) futures.push_back(engine.entry_async(pp.a, pp.b));
    for (auto& f : futures) (void)f.get()->index();
    for (const std::size_t t : plots_) {
      const Template& tp = templates_[t];
      engine.alignment_plot(tp.request.a, tp.request.b, *tp.request.plot,
                            [](PlotTile&&) { return true; });
    }
  }

  LoadOptions load(int port, double seconds) override {
    LoadOptions options;
    options.port = port;
    options.connections = 4;
    options.rate = rate_;
    options.seconds = seconds;
    options.next = [this](std::uint64_t i) {
      const double u = unit(mix(seed_, i));
      const std::vector<std::size_t>& pick = u < kPlotShare && !plots_.empty() ? plots_
                                             : u < kPlotShare + kBatchShare   ? batch_
                                                                              : lcs_;
      const std::size_t t = pick[mix(seed_, i, 1) % pick.size()];
      const Template& tp = templates_[t];
      Outgoing out;
      out.payload = tp.payload;
      out.cls = tp.cls;
      out.tag = static_cast<std::uint32_t>(t);
      if (tp.request.plot) {
        out.plot_rows = tp.request.plot->rows;
        out.plot_cols = tp.request.plot->cols;
      }
      return out;
    };
    options.verify = [this](const Outgoing& out, const Response& r, const PlotAssembler* grid) {
      const Template& tp = templates_[out.tag];
      switch (tp.request.op) {
        case Op::kLcs:
          return r.value == tp.expected;
        case Op::kBatchQuery:
          if (r.values.size() != tp.request.windows.size()) return false;
          return std::all_of(tp.window_checks.begin(), tp.window_checks.end(),
                             [&](const auto& c) { return r.values[c.first] == c.second; });
        default:
          return grid != nullptr &&
                 std::all_of(tp.cell_checks.begin(), tp.cell_checks.end(), [&](const auto& c) {
                   return grid->cell(c[0], c[1]) == c[2];
                 });
      }
    };
    return options;
  }

  CheckResult check(World&, const LoadResult& load, const Snapshot& before,
                    const Snapshot& after) override {
    CheckResult result;
    std::uint64_t computed = 0;
    std::uint64_t scanned = 0;
    for (std::size_t e = 0; e < after.engines.size(); ++e) {
      computed += delta(after.engines[e].scheduler.computed, before.engines[e].scheduler.computed);
      scanned += delta(after.engines[e].queries.scanned, before.engines[e].queries.scanned);
    }
    const auto expect = [&](bool ok, const std::string& what) {
      (ok ? result.notes : result.violations).push_back(what);
    };
    if (routed_) {
      const bool stamped = std::all_of(load.records.begin(), load.records.end(), [](const auto& r) {
        return r.outcome != Outcome::kOk || r.shard >= 0;
      });
      expect(stamped, "every response carries a shard stamp");
      expect(after.router.failovers == before.router.failovers, "zero router failovers");
    } else {
      expect(computed == 0, "zero kernel computes in the timed window");
      expect(scanned == 0, "zero scan fallbacks in the timed window");
    }
    return result;
  }

  double cells(std::uint32_t tag) const override {
    const PoolPair& pp = pool_[templates_[tag].pair];
    return static_cast<double>(pp.a.size()) * static_cast<double>(pp.b.size());
  }

  std::vector<std::pair<Sequence, Sequence>> probe_pairs() const override {
    std::vector<std::size_t> order(pool_.size());
    for (std::size_t p = 0; p < order.size(); ++p) order[p] = p;
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return pool_[x].a.size() < pool_[y].a.size();
    });
    std::vector<std::pair<Sequence, Sequence>> out;
    for (const std::size_t q : {order.size() / 4, order.size() / 2, 3 * order.size() / 4}) {
      out.emplace_back(pool_[order[q]].a, pool_[order[q]].b);
    }
    return out;
  }

  std::vector<Request> probe_reads() const override {
    std::vector<Request> out;  // one kLcs and one batch per length class
    for (std::size_t c = 0; c < kSizes; ++c) {
      out.push_back(templates_[lcs_[c * kPerSize]].request);
      out.push_back(templates_[batch_[c * kPerSize + c % kPerSize]].request);
    }
    return out;
  }

 private:
  static constexpr int kSizes = 12;
  static constexpr int kPerSize = 4;
  static constexpr double kPlotShare = 0.02;
  static constexpr double kBatchShare = 0.38;

  bool routed_;
  double rate_;
  std::uint64_t seed_ = 0;
  Corrupt corrupt_ = Corrupt::kNone;
  std::vector<PoolPair> pool_;
  std::vector<Template> templates_;
  std::vector<std::size_t> lcs_;
  std::vector<std::size_t> batch_;
  std::vector<std::size_t> plots_;
};

// ---------------------------------------------------------------------------
// cold_compare: every request is a pair the store has never seen, drawn from
// ordered pairs of a pool of 8000-symbol strings; kernels persist as v3 in a
// fresh store whose cache the run outgrows.

class ColdWorkload : public Workload {
 public:
  const char* name() const override { return "cold_compare"; }
  bool supports(Corrupt c) const override { return c == Corrupt::kLcs; }

  void generate(std::uint64_t seed, double, Corrupt corrupt) override {
    corrupt_ = corrupt;
    strings_.clear();
    order_.clear();
    Rng rng(seed);
    constexpr int kStrings = 96;
    for (int s = 0; s < kStrings; ++s) strings_.push_back(random_dna(kLength, rng));
    for (std::uint32_t i = 0; i < kStrings; ++i) {
      for (std::uint32_t j = 0; j < kStrings; ++j) {
        if (i != j) order_.emplace_back(i, j);
      }
    }
    std::shuffle(order_.begin(), order_.end(), rng.engine());
  }

  WorldOptions world() const override {
    WorldOptions options;
    options.disk_store = true;
    options.traced_pumps = static_cast<int>(kConnections * kWindow);
    return options;
  }

  void prepare(World&) override {}

  LoadOptions load(int port, double seconds) override {
    answers_.clear();
    LoadOptions options;
    options.port = port;
    options.connections = kConnections;
    options.closed_loop = true;
    options.window = kWindow;
    options.seconds = seconds;
    options.next = [this](std::uint64_t i) {
      const auto& [x, y] = order_[i % order_.size()];
      Outgoing out;
      out.payload = encode_request(read_request(strings_[x], strings_[y]));
      out.tag = static_cast<std::uint32_t>(i % order_.size());
      return out;
    };
    options.verify = [this](const Outgoing& out, const Response& r, const PlotAssembler*) {
      answers_.emplace_back(out.tag, r.value);  // checked after the window
      return true;
    };
    return options;
  }

  CheckResult check(World&, const LoadResult& load, const Snapshot& before,
                    const Snapshot& after) override {
    CheckResult result;
    std::vector<Index> expected(answers_.size());
    std::vector<std::function<void()>> oracle;
    for (std::size_t k = 0; k < answers_.size(); ++k) {
      oracle.emplace_back([this, k, &expected] {
        const auto& [x, y] = order_[answers_[k].first];
        expected[k] = lcs_bitparallel_hyyro(strings_[x], strings_[y]);
      });
    }
    parallel_run(oracle);
    if (corrupt_ == Corrupt::kLcs && !expected.empty()) expected[0] += 1;
    for (std::size_t k = 0; k < answers_.size(); ++k) {
      if (answers_[k].second != expected[k]) ++result.wrong;
    }
    const EngineStats& b = before.engines[0];
    const EngineStats& a = after.engines[0];
    const auto expect = [&](bool ok, const std::string& what) {
      (ok ? result.notes : result.violations).push_back(what);
    };
    expect(load.records.size() <= order_.size(), "every pair sent is distinct");
    expect(delta(a.scheduler.computed, b.scheduler.computed) == load.records.size(),
           "kernels computed == distinct pairs sent (" + std::to_string(load.records.size()) + ")");
    expect(a.store.cache.hits == b.store.cache.hits, "zero pair-key cache hits");
    return result;
  }

  double cells(std::uint32_t tag) const override {
    const auto& [x, y] = order_[tag];
    return static_cast<double>(strings_[x].size()) * static_cast<double>(strings_[y].size());
  }

  std::vector<std::pair<Sequence, Sequence>> probe_pairs() const override {
    std::vector<std::pair<Sequence, Sequence>> out;
    for (std::size_t k = 0; k < 3; ++k) out.emplace_back(strings_[order_[k].first], strings_[order_[k].second]);
    return out;
  }

  std::vector<Request> probe_reads() const override {
    std::vector<Request> out;
    for (std::size_t k = 0; k < 16; ++k) {
      out.push_back(read_request(strings_[order_[k].first], strings_[order_[k].second]));
    }
    return out;
  }

 private:
  static constexpr std::size_t kConnections = 4;
  static constexpr std::size_t kWindow = 4;
  static constexpr Index kLength = 8000;

  Corrupt corrupt_ = Corrupt::kNone;
  std::vector<Sequence> strings_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order_;
  std::vector<std::pair<std::uint32_t, Index>> answers_;  ///< (pair, answer)
};

// ---------------------------------------------------------------------------
// edit_read: a corpus of a live document (16-24 Ki symbols, whole chunks)
// and two reference documents of 16 Ki and 20 Ki symbols. Every kWriteEvery-th request upserts
// the live document's next version from a seeded edit script: whole-chunk
// appends and single-symbol edits in its last two chunks, truncated back to
// 16 Ki once an append would pass 24 Ki. An edit k chunks from the end costs
// k steady-ant compositions per pair, so the script keeps edits near the
// tail to hold the write path under half of one core at ~11 writes/s;
// the other requests read a document pair at the version kLag writes behind
// the newest one sent, so reads meet freshly published kernels, not ones
// still being composed.

class EditWorkload : public Workload {
 public:
  const char* name() const override { return "edit_read"; }
  bool has_writes() const override { return true; }
  bool supports(Corrupt c) const override {
    return c == Corrupt::kLcs || c == Corrupt::kWindow || c == Corrupt::kKernel;
  }

  void generate(std::uint64_t seed, double seconds, Corrupt corrupt) override {
    seed_ = seed;
    corrupt_ = corrupt;
    states_.clear();
    Rng rng(seed);
    ref_[0] = random_dna(kBaseLen, rng);
    ref_[1] = random_dna(kBaseLen + kBaseLen / 4, rng);
    states_.push_back(random_dna(kBaseLen, rng));
    const auto writes = static_cast<std::size_t>(std::ceil(kRate * seconds / kWriteEvery)) + 1;
    for (std::size_t w = 1; w <= writes; ++w) {
      Sequence doc = states_.back();
      const auto len = static_cast<Index>(doc.size());
      if (len + kChunk > kMaxLen) {
        doc.resize(kBaseLen);
      } else if (rng.bernoulli(0.5)) {
        const Sequence chunk = random_dna(kChunk, rng);
        doc.insert(doc.end(), chunk.begin(), chunk.end());
      } else {
        const Index pos = rng.uniform(len - kEditChunks * kChunk, len - 1);
        Symbol& s = doc[static_cast<std::size_t>(pos)];
        s = s == 'A' ? 'C' : 'A';
      }
      states_.push_back(std::move(doc));
    }
  }

  WorldOptions world() const override {
    WorldOptions options;
    options.disk_store = true;
    options.corpus = true;
    return options;
  }

  void prepare(World& world) override {
    CorpusManager& corpus = *world.corpus();
    corpus.upsert_document(kRefIds[0], ref_[0]);
    corpus.upsert_document(kRefIds[1], ref_[1]);
    corpus.upsert_document(kLiveId, states_[0]);
  }

  LoadOptions load(int port, double seconds) override {
    lcs_answers_.clear();
    window_answers_.clear();
    writes_ = WriteTotals{};
    LoadOptions options;
    options.port = port;
    options.connections = 4;
    options.rate = kRate;
    options.seconds = seconds;
    options.next = [this](std::uint64_t i) {
      Outgoing out;
      out.tag = static_cast<std::uint32_t>(i);
      if (is_write(i)) {
        Request request;
        request.op = Op::kUpsert;
        request.a = to_sequence(kLiveId);
        request.b = states_[write_number(i)];
        out.payload = encode_request(request);
        out.cls = OpClass::kWrite;
        return out;
      }
      out.payload = encode_request(read_for(i));
      return out;
    };
    options.verify = [this](const Outgoing& out, const Response& r, const PlotAssembler*) {
      const std::uint64_t i = out.tag;
      if (is_write(i)) {
        ++writes_.ok;
        writes_.changed += json_field(r.text, "changed") == 1 ? 1 : 0;
        writes_.computed += json_field(r.text, "chunks_computed");
        writes_.reused += json_field(r.text, "chunks_reused");
        writes_.prefix_reused += json_field(r.text, "prefix_reused");
        writes_.composes += json_field(r.text, "composes");
        // Each applied write bumps the live version by one, so versions
        // come back distinct; which write got the newest is checked after
        // the run.
        return writes_.by_version.emplace(r.value, write_number(i)).second;
      }
      if (!is_batch(i)) {
        lcs_answers_.push_back({state_for(i), pair_for(i), r.value});
        return true;
      }
      if (r.values.size() != kWindows) return false;
      const std::size_t w = mix(seed_, i, 4) % kWindows;
      window_answers_.push_back({i, w, r.values[w]});
      return true;
    };
    return options;
  }

  CheckResult check(World& world, const LoadResult&, const Snapshot&, const Snapshot&) override {
    CheckResult result;
    // kLcs answers, one oracle value per (version, pair).
    std::map<std::pair<std::size_t, int>, Index> lcs;
    for (const LcsAnswer& a : lcs_answers_) lcs.emplace(std::make_pair(a.state, a.pair), -1);
    std::vector<std::function<void()>> oracle;
    for (auto& [key, value] : lcs) {
      oracle.emplace_back([this, &key = key, &value = value] {
        const auto [a, b] = docs(key.first, key.second);
        value = lcs_bitparallel_hyyro(*a, *b);
      });
    }
    std::vector<Index> window_expected(window_answers_.size());
    for (std::size_t k = 0; k < window_answers_.size(); ++k) {
      oracle.emplace_back([this, k, &window_expected] {
        const WindowAnswer& wa = window_answers_[k];
        const Request request = read_for(wa.i);
        const auto [a, b] = docs(state_for(wa.i), pair_for(wa.i));
        window_expected[k] = oracle_window(*a, *b, request.windows[wa.window]);
      });
    }
    parallel_run(oracle);
    if (corrupt_ == Corrupt::kLcs && !lcs.empty()) lcs.begin()->second += 1;
    if (corrupt_ == Corrupt::kWindow && !window_expected.empty()) window_expected[0] += 1;
    for (const LcsAnswer& a : lcs_answers_) {
      if (lcs.at({a.state, a.pair}) != a.value) ++result.wrong;
    }
    for (std::size_t k = 0; k < window_answers_.size(); ++k) {
      if (window_answers_[k].value != window_expected[k]) ++result.wrong;
    }

    // The published generation: the live document holds the bytes of the
    // write that got the newest version, and every published pair kernel
    // equals a fresh semi_local_kernel of the current documents, bit for bit.
    CorpusManager& corpus = *world.corpus();
    const std::size_t newest = writes_.by_version.empty() ? 0 : writes_.by_version.rbegin()->second;
    if (corpus.document(kLiveId) != states_[newest]) ++result.wrong;
    for (const CorpusIndexEntry& entry : corpus.index_entries()) {
      const Sequence a = corpus.document(entry.id_a).value_or(Sequence{});
      const Sequence b = corpus.document(entry.id_b).value_or(Sequence{});
      const CachedKernelPtr published = world.engine().store().find(make_pair_key(a, b));
      SemiLocalKernel fresh = semi_local_kernel(a, b);
      if (corrupt_ == Corrupt::kKernel) {
        std::vector<Index> row_to_col(fresh.permutation().row_to_col().begin(),
                                      fresh.permutation().row_to_col().end());
        std::swap(row_to_col[0], row_to_col[1]);
        Permutation swapped(fresh.order());
        for (std::size_t r = 0; r < row_to_col.size(); ++r) {
          swapped.set(static_cast<Index>(r), row_to_col[r]);
        }
        fresh = SemiLocalKernel(std::move(swapped), fresh.m(), fresh.n());
      }
      if (published == nullptr || !(published->kernel().permutation() == fresh.permutation())) {
        ++result.wrong;
      }
    }

    const auto expect = [&](bool ok, const std::string& what) {
      (ok ? result.notes : result.violations).push_back(what);
    };
    expect(writes_.ok > 0 && writes_.changed == writes_.ok, "every upsert reports changed");
    expect(writes_.reused + writes_.prefix_reused > 0, "chunk reuse above zero");
    return result;
  }

  double cells(std::uint32_t tag) const override {
    if (is_write(tag)) return 0.0;
    const auto [a, b] = docs(state_for(tag), pair_for(tag));
    return static_cast<double>(a->size()) * static_cast<double>(b->size());
  }

  std::vector<std::pair<Sequence, Sequence>> probe_pairs() const override {
    return {{states_[0], ref_[0]}, {states_[0], ref_[1]}};
  }

  std::vector<Request> probe_reads() const override {
    std::vector<Request> out;
    for (std::uint64_t i = 0; out.size() < 16; ++i) {
      if (!is_write(i)) out.push_back(read_for(i));
    }
    return out;
  }

  std::vector<Metric> corpus_layers() const override {
    const auto reused = static_cast<double>(writes_.reused + writes_.prefix_reused);
    return {{"braid.composes", ratio(static_cast<double>(writes_.composes), static_cast<double>(writes_.ok)), "count"},
            {"corpus.chunks_computed", static_cast<double>(writes_.computed), "count"},
            {"corpus.chunk_reuse_ratio", ratio(reused, reused + static_cast<double>(writes_.computed)), "ratio"}};
  }

 private:
  static constexpr double kRate = 120.0;     ///< requests per second, all kinds
  static constexpr std::uint64_t kWriteEvery = 11;  ///< so ~11 writes per second
  static constexpr std::size_t kLag = 2;     ///< reads trail the newest write by this many
  static constexpr Index kChunk = 1024;      ///< CorpusManagerOptions::chunk default
  static constexpr Index kBaseLen = 16384;   ///< reference length; live truncates back to it
  static constexpr Index kMaxLen = 24576;    ///< live length cap
  static constexpr Index kEditChunks = 2;    ///< edits land in the last two chunks
  static constexpr std::size_t kWindows = 100;
  static constexpr const char* kLiveId = "live";
  static constexpr std::array<const char*, 2> kRefIds = {"ref-0", "ref-1"};

  struct LcsAnswer {
    std::size_t state;
    int pair;
    Index value;
  };
  struct WindowAnswer {
    std::uint64_t i;
    std::size_t window;
    Index value;
  };
  struct WriteTotals {
    std::uint64_t ok = 0;
    std::uint64_t changed = 0;
    std::uint64_t computed = 0;
    std::uint64_t reused = 0;
    std::uint64_t prefix_reused = 0;
    std::uint64_t composes = 0;
    std::map<Index, std::size_t> by_version;  ///< live version -> write number
  };

  static bool is_write(std::uint64_t i) { return i % kWriteEvery == kWriteEvery - 1; }
  static std::size_t write_number(std::uint64_t i) { return static_cast<std::size_t>(i / kWriteEvery) + 1; }
  static std::size_t state_for(std::uint64_t i) {
    const auto sent = static_cast<std::size_t>(i / kWriteEvery);
    return sent > kLag ? sent - kLag : 0;
  }
  int pair_for(std::uint64_t i) const { return static_cast<int>(mix(seed_, i, 1) % 3); }

  /// The document pair `pair` at live version `state`, in corpus id order
  /// ("live" < "ref-0" < "ref-1"), which is the pair kernel's orientation.
  std::pair<const Sequence*, const Sequence*> docs(std::size_t state, int pair) const {
    if (pair == 2) return {&ref_[0], &ref_[1]};
    return {&states_[state], &ref_[static_cast<std::size_t>(pair)]};
  }

  bool is_batch(std::uint64_t i) const { return unit(mix(seed_, i, 2)) < 0.5; }

  Request read_for(std::uint64_t i) const {
    const auto [a, b] = docs(state_for(i), pair_for(i));
    Request request = read_request(*a, *b);
    if (is_batch(i)) {
      Rng rng(mix(seed_, i, 3));
      request.op = Op::kBatchQuery;
      request.windows = random_windows(*a, *b, kWindows, rng);
    }
    return request;
  }

  std::uint64_t seed_ = 0;
  Corrupt corrupt_ = Corrupt::kNone;
  std::array<Sequence, 2> ref_;
  std::vector<Sequence> states_;  ///< live document after write w (0 = initial)
  std::vector<LcsAnswer> lcs_answers_;
  std::vector<WindowAnswer> window_answers_;
  WriteTotals writes_;
};

}  // namespace

Snapshot snapshot(World& world) {
  Snapshot s;
  for (std::size_t e = 0; e < world.engines(); ++e) s.engines.push_back(world.engine(e).stats());
  s.frontend = world.frontend_stats();
  if (world.router() != nullptr) s.router = world.router()->stats();
  return s;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  // Open-loop rates are pinned, never recalibrated per run: about half of
  // the rate at which each workload saturated on a 4 vCPU x86-64 VM.
  if (name == "warm_read") return std::make_unique<PoolWorkload>(false, 5000.0);
  if (name == "cold_compare") return std::make_unique<ColdWorkload>();
  if (name == "edit_read") return std::make_unique<EditWorkload>();
  if (name == "routed_read") return std::make_unique<PoolWorkload>(true, 5000.0);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
