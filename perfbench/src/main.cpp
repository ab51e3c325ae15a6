// perfbench: the serving benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch DIR] [--git-sha SHA]
//             [--corrupt lcs|window|plot|kernel|request]
//
// Untraced (--trace 0): sets the workload's world up at least five times
// and for at least two seconds (setup_s is the median), runs the timed window
// against the last one, checks every answer and the workload's invariants,
// and prints the end-to-end metrics.
// Traced (--trace 1): one untraced pass, then the same seeded stream again
// against handler-mode reactors whose dispatcher records spans, then the
// layer probes; prints the per-layer metrics and the tracing overhead.
//
// The last stdout line is the result object; the line before it holds the
// run's stamp, every metric that applies to the workload, the invariants
// and the per-layer breakdown. Exit status: 0 ok, 1 wrong answer, failed
// request or broken invariant, 2 bad usage or setup failure, 3 the open-loop
// generator fell behind its schedule (the run measured the client, not the
// server) in a run that was otherwise correct.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>

#include "client.hpp"
#include "common.hpp"
#include "core/comb_kernels.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// An untraced run sets its world up at least kMinSetups times and until
/// kMinSetupSeconds have been spent setting up (at most kMaxSetups times);
/// setup_s is the median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 2000;
constexpr double kMinSetupSeconds = 2.0;

/// The open-loop generator fell behind its schedule when a tenth of its
/// sends left this late: a second or more of the window measured the
/// client, not the server. (A brief host stall moves only the p99.)
constexpr double kMaxGenLateP90Ms = 5.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench-scratch";
  std::string git_sha = "unknown";
  Corrupt corrupt = Corrupt::kNone;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--scratch") {
      args.scratch = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else if (key == "--corrupt") {
      args.corrupt = value == "lcs"       ? Corrupt::kLcs
                     : value == "window"  ? Corrupt::kWindow
                     : value == "plot"    ? Corrupt::kPlot
                     : value == "kernel"  ? Corrupt::kKernel
                     : value == "request" ? Corrupt::kRequest
                                          : throw std::invalid_argument("bad --corrupt " + value);
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (args.workload.empty() || args.seconds <= 0) {
    throw std::invalid_argument("need --workload and --seconds > 0");
  }
  return args;
}

/// One world set up (several times, for setup_s) and driven once.
struct Pass {
  std::unique_ptr<World> world;
  std::vector<double> setup_s;
  LoadResult load;
  Snapshot before;
  Snapshot after;
  CheckResult check;
  double peak_rss_mb = 0.0;
  double steal_frac = 0.0;  ///< CPU time stolen by the hypervisor in the window
};

/// Starts a new peak-RSS interval: returns freed heap to the kernel, then
/// resets the kernel's high-water mark (VmHWM). Best effort: where the
/// kernel refuses, the peak covers the whole process.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak RSS since the last reset_peak_rss, in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Pass run_pass(Workload& workload, const Args& args, Tracer* tracer, bool repeat_setup) {
  Pass pass;
  double spent = 0.0;
  for (int s = 0; s == 0 || (repeat_setup && s < kMaxSetups &&
                             (s < kMinSetups || spent < kMinSetupSeconds));
       ++s) {
    pass.world.reset();  // teardown is not part of set-up
    // Peak RSS covers one world: its set-up, the window and the drain.
    reset_peak_rss();
    WorldOptions options = workload.world();
    options.dir = args.scratch + "/" + workload.name() + "-" + std::to_string(::getpid()) + "-" +
                  (tracer ? "traced" : "plain") + "-" + std::to_string(s);
    options.tracer = tracer;
    const std::uint64_t start = mono_ns();
    workload.generate(args.seed, args.seconds, args.corrupt);
    pass.world = std::make_unique<World>(options);
    workload.prepare(*pass.world);
    pass.setup_s.push_back(static_cast<double>(mono_ns() - start) / 1e9);
    spent += pass.setup_s.back();
  }
  workload.compute_oracle();
  pass.before = snapshot(*pass.world);
  pass.load = run_load(workload.load(pass.world->port(), args.seconds));
  if (!pass.load.cpu.empty()) {
    pass.steal_frac = steal_between(pass.load.cpu.front(), pass.load.cpu.back());
  }
  pass.peak_rss_mb = peak_rss_mb();
  pass.after = snapshot(*pass.world);
  pass.check = workload.check(*pass.world, pass.load, pass.before, pass.after);
  return pass;
}

std::vector<double> latencies_ms(const LoadResult& load, OpClass cls) {
  std::vector<double> out;
  for (const RequestRecord& r : load.records) {
    if (r.cls == cls && r.outcome == Outcome::kOk) {
      out.push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e6);
    }
  }
  return out;
}

/// Up to kSlices equal slices of the timed window (by due time), each with
/// at least kMinSliceSamples requests of the class measured.
constexpr int kSlices = 20;
constexpr std::size_t kMinSliceSamples = 100;
/// A slice is stolen when the hypervisor took more than this share of the
/// VM's CPU time in it beyond the window's calmest slice (on 4 vCPUs, two
/// of the 200 jiffies of a 500 ms slice).
constexpr double kStealMargin = 0.01;

/// The ok latencies of one class that the gated percentiles are taken over.
struct CalmSample {
  std::vector<double> latency_ms;
  std::size_t slices = 1;  ///< slices the window was cut into
  std::size_t kept = 1;    ///< slices not dropped as stolen
};

/// An open loop's latencies outside hypervisor steal episodes: the window's
/// slices, less those whose steal share (from /proc/stat) is clearly above
/// the calmest slice's. A shared host steals in episodes; a stolen vCPU
/// stalls every request queued behind it, which moves the tail by
/// milliseconds for reasons outside the program. When steal does not vary
/// every slice is kept, and a change to the program moves every slice alike,
/// so it still shows. A closed loop's latency is its window of requests over
/// the throughput the whole run sustained, so there the whole window counts.
CalmSample calm_sample(const LoadResult& load, OpClass cls) {
  CalmSample calm;
  if (load.gen_late_ms.empty()) {
    calm.latency_ms = latencies_ms(load, cls);
    return calm;
  }
  std::size_t samples = 0;
  for (const RequestRecord& r : load.records) samples += r.cls == cls ? 1 : 0;
  calm.slices = std::clamp<std::size_t>(samples / kMinSliceSamples, 1, kSlices);
  const double width = static_cast<double>(load.end_ns - load.start_ns) / static_cast<double>(calm.slices);
  std::vector<std::vector<double>> latency(calm.slices);
  for (const RequestRecord& r : load.records) {
    if (r.outcome != Outcome::kOk || r.cls != cls || r.due_ns < load.start_ns) continue;
    const auto at = static_cast<std::size_t>(static_cast<double>(r.due_ns - load.start_ns) / width);
    if (at < calm.slices) latency[at].push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e6);
  }
  // Steal per slice, from the CPU samples bracketing it.
  const auto sample_at = [&](double t_ns) {
    const auto at = static_cast<std::uint64_t>(t_ns);
    auto it = std::lower_bound(load.cpu.begin(), load.cpu.end(), at,
                               [](const CpuSample& s, std::uint64_t t) { return s.at_ns < t; });
    return it == load.cpu.end() ? load.cpu.back() : *it;
  };
  std::vector<double> steal(calm.slices, 0.0);
  for (std::size_t i = 0; i < calm.slices && !load.cpu.empty(); ++i) {
    const double lo = static_cast<double>(load.start_ns) + width * static_cast<double>(i);
    steal[i] = steal_between(sample_at(lo), sample_at(lo + width));
  }
  const double baseline = *std::min_element(steal.begin(), steal.end());
  calm.kept = 0;
  for (std::size_t i = 0; i < calm.slices; ++i) {
    if (steal[i] > baseline + kStealMargin) continue;
    calm.latency_ms.insert(calm.latency_ms.end(), latency[i].begin(), latency[i].end());
    ++calm.kept;
  }
  return calm;
}

/// Requests that got no ok answer: kError or kOverloaded frames, decode
/// errors, closed sockets and requests never answered.
std::uint64_t failed_requests(const LoadResult& load) {
  std::uint64_t failed = 0;
  for (const RequestRecord& r : load.records) failed += r.outcome != Outcome::kOk ? 1 : 0;
  return failed;
}

/// Every workload is sized so that the server never sheds or refuses a
/// request; a failed one is a broken invariant, like a wrong answer.
void expect_no_failures(std::uint64_t failed, const std::string& prefix,
                        std::vector<std::string>& notes, std::vector<std::string>& violations) {
  const std::string what = prefix + "zero failed requests (" + std::to_string(failed) + " failed)";
  (failed == 0 ? notes : violations).push_back(what);
}

template <typename F>
std::uint64_t sum_engines(const Snapshot& s, F field) {
  std::uint64_t total = 0;
  for (const semilocal::EngineStats& e : s.engines) total += field(e);
  return total;
}

template <typename F>
double engine_delta(const Pass& p, F field) {
  const std::uint64_t a = sum_engines(p.after, field);
  const std::uint64_t b = sum_engines(p.before, field);
  return a >= b ? static_cast<double>(a - b) : 0.0;
}

double median_of(const TraceAnalysis& t, const char* name) {
  const auto it = t.by_name.find(name);
  return it == t.by_name.end() ? 0.0 : median(it->second.duration_us);
}

int run(const Args& args) {
  auto workload = make_workload(args.workload);
  if (args.corrupt != Corrupt::kNone && !workload->supports(args.corrupt)) {
    throw std::invalid_argument("--corrupt: no such expected value in this workload");
  }
  std::fprintf(stderr, "perfbench: %s seed=%llu\n", workload->name(),
               static_cast<unsigned long long>(args.seed));

  Pass plain = run_pass(*workload, args, nullptr, /*repeat_setup=*/!args.trace);
  const LoadResult& load = plain.load;
  const std::uint64_t failed = failed_requests(load);
  std::uint64_t last_ok_ns = load.start_ns;
  for (const RequestRecord& r : load.records) {
    if (r.outcome == Outcome::kOk) last_ok_ns = std::max(last_ok_ns, r.done_ns);
  }
  const double ok = static_cast<double>(load.records.size() - failed);
  const std::vector<double> reads = latencies_ms(load, OpClass::kRead);
  const CalmSample calm = calm_sample(load, OpClass::kRead);
  const double read_p50 = percentile(calm.latency_ms, 0.5);
  const bool open_loop = !load.gen_late_ms.empty();
  const double gen_late_p99 = percentile(load.gen_late_ms, 0.99);
  const double gen_late_p90 = percentile(load.gen_late_ms, 0.9);

  std::vector<Metric> e2e = {
      {"setup_s", median(plain.setup_s), "s"},
      {"throughput_rps", ratio(ok, static_cast<double>(last_ok_ns - load.start_ns) / 1e9), "req/s"},
      {"read_p50_ms", read_p50, "ms"},
      {"read_p90_ms", percentile(calm.latency_ms, 0.9), "ms"},
      {"rss_mb", plain.peak_rss_mb, "MB"},
  };
  std::vector<Metric> detail = e2e;
  detail.push_back({"read_p99_ms", percentile(reads, 0.99), "ms"});
  detail.push_back({"read_samples", static_cast<double>(reads.size()), "count"});
  detail.push_back({"read_slices", static_cast<double>(calm.slices), "count"});
  detail.push_back({"read_slices_kept", static_cast<double>(calm.kept), "count"});
  if (workload->has_plots()) {
    const std::vector<double> plots = latencies_ms(load, OpClass::kPlot);
    detail.push_back({"plot_p50_ms", percentile(plots, 0.5), "ms"});
    detail.push_back({"plot_p90_ms", percentile(plots, 0.9), "ms"});
    detail.push_back({"plot_samples", static_cast<double>(plots.size()), "count"});
  }
  if (workload->has_writes()) {
    const std::vector<double> writes = latencies_ms(load, OpClass::kWrite);
    detail.push_back({"write_p50_ms", percentile(writes, 0.5), "ms"});
    detail.push_back({"write_p90_ms", percentile(writes, 0.9), "ms"});
    detail.push_back({"write_samples", static_cast<double>(writes.size()), "count"});
  }
  detail.push_back({"failed_frac", ratio(static_cast<double>(failed), static_cast<double>(load.records.size())), "fraction"});
  if (workload->world().disk_store) {
    const double bytes = engine_delta(plain, [](const auto& e) { return e.store.bytes_on_disk; });
    const double writes = engine_delta(plain, [](const auto& e) { return e.store.disk_writes; });
    detail.push_back({"disk_bytes_per_pair", ratio(bytes, writes), "B"});
  }
  if (open_loop) detail.push_back({"gen_late_p99_ms", gen_late_p99, "ms"});
  detail.push_back({"cpu_steal_frac", plain.steal_frac, "fraction"});

  std::uint64_t wrong = load.wrong + plain.check.wrong;
  std::vector<std::string> violations = plain.check.violations;
  std::vector<std::string> notes = plain.check.notes;
  expect_no_failures(failed, "", notes, violations);
  std::vector<Metric> layers;
  std::vector<Metric> layer_detail;

  if (args.trace) {
    // Counters from the untraced pass: that is the reactor as deployed.
    const auto d = [&](auto field) { return engine_delta(plain, field); };
    const double hits = d([](const auto& e) { return e.store.cache.hits; });
    const double misses = d([](const auto& e) { return e.store.cache.misses; });
    const double computed = d([](const auto& e) { return e.scheduler.computed; });
    const double batches = d([](const auto& e) { return e.scheduler.batches; });
    const double plot_windows = d([](const auto& e) { return e.queries.plot_windows; });
    const semilocal::FrontendStats& fa = plain.after.frontend;
    const semilocal::FrontendStats& fb = plain.before.frontend;
    const double inline_answers = static_cast<double>(fa.inline_answers - fb.inline_answers);
    const double pump_answers = static_cast<double>(fa.pump_answers - fb.pump_answers);
    const semilocal::RouterStats& ra = plain.after.router;
    const semilocal::RouterStats& rb = plain.before.router;
    double shard_balance = 0.0;
    if (!ra.shards.empty()) {
      double lo = 0.0;
      double hi = 0.0;
      for (std::size_t s = 0; s < ra.shards.size(); ++s) {
        const auto served = static_cast<double>(ra.shards[s].ok - rb.shards[s].ok);
        lo = s == 0 ? served : std::min(lo, served);
        hi = std::max(hi, served);
      }
      shard_balance = ratio(lo, hi);
    }
    const bool routed = !ra.shards.empty();
    const std::vector<std::string> samples = load.sample_responses;
    const double request_kb =
        ratio(static_cast<double>(load.request_bytes), static_cast<double>(load.records.size())) / 1024.0;
    plain.world.reset();

    std::fprintf(stderr, "perfbench: traced pass\n");
    Tracer tracer;
    Pass traced = run_pass(*workload, args, &tracer, /*repeat_setup=*/false);
    wrong += traced.load.wrong + traced.check.wrong;
    for (const std::string& v : traced.check.violations) violations.push_back("traced: " + v);
    expect_no_failures(failed_requests(traced.load), "traced: ", notes, violations);
    const TraceAnalysis spans = analyse(tracer.collect());

    std::vector<double> frontend_self;
    double cells = 0.0;
    for (const RequestRecord& r : traced.load.records) {
      if (r.outcome != Outcome::kOk || r.cls != OpClass::kRead) continue;
      const auto root = spans.root_us.find(r.id);
      if (root == spans.root_us.end()) continue;
      frontend_self.push_back(static_cast<double>(r.done_ns - r.send_ns) / 1e3 - root->second);
    }
    if (const auto it = spans.by_name.find("scheduler.wait"); it != spans.by_name.end()) {
      for (const std::uint64_t id : std::set<std::uint64_t>(it->second.requests.begin(),
                                                             it->second.requests.end())) {
        const std::uint64_t index = id - kFirstRequestId;
        if (index < traced.load.records.size()) cells += workload->cells(traced.load.records[index].tag);
      }
    }
    double plot_span_s = 0.0;
    if (const auto it = spans.by_name.find("query.plot"); it != spans.by_name.end()) {
      for (const double us : it->second.duration_us) plot_span_s += us / 1e6;
    }
    const double traced_plot_windows = engine_delta(traced, [](const auto& e) { return e.queries.plot_windows; });
    const double traced_read_p50 = percentile(calm_sample(traced.load, OpClass::kRead).latency_ms, 0.5);

    ProbeInputs probe;
    probe.pairs = workload->probe_pairs();
    probe.reads = workload->probe_reads();
    probe.responses = samples;
    probe.route_port = routed ? 0 : traced.world->port();
    probe.seed = args.seed;
    std::fprintf(stderr, "perfbench: layer probes\n");
    const std::vector<Metric> probes = probe_layers(probe);
    const auto probed = [&](const std::string& name) {
      for (const Metric& m : probes) {
        if (m.name == name) return m.value;
      }
      return 0.0;
    };

    const std::vector<Metric> corpus = workload->corpus_layers();
    layers = {
        {"protocol.decode_us", probed("protocol.decode_us"), "us"},
        {"protocol.encode_us", probed("protocol.encode_us"), "us"},
        {"protocol.request_kb", request_kb, "KB"},
        {"frontend.self_us", median(frontend_self), "us"},
        {"frontend.inline_frac", ratio(inline_answers, inline_answers + pump_answers), "ratio"},
        {"frontend.retry_after", static_cast<double>(fa.retry_after_sent - fb.retry_after_sent), "count"},
        {"key.digest_us", median_of(spans, "key.digest"), "us"},
        {"store.find_us", median_of(spans, "store.find"), "us"},
        {"store.hit_ratio", ratio(hits, hits + misses), "ratio"},
        {"store.evictions", d([](const auto& e) { return e.store.cache.evictions; }), "count"},
        {"store.disk_writes", d([](const auto& e) { return e.store.disk_writes; }), "count"},
        {"store.encode_ms", probed("store.encode_ms"), "ms"},
        {"store.compression_ratio", probed("store.compression_ratio"), "ratio"},
        {"query.answer_us", median_of(spans, "query.answer"), "us"},
        {"query.batch_ns_per_window", probed("query.batch_ns_per_window"), "ns"},
        {"query.scanned", d([](const auto& e) { return e.queries.scanned; }), "count"},
        {"query.plot_windows_per_s", ratio(traced_plot_windows, plot_span_s), "1/s"},
        {"query.plot_reuse_ratio",
         ratio(d([](const auto& e) { return e.queries.plot_reused_descents; }), plot_windows), "ratio"},
        {"core.comb_ns_per_cell", probed("core.comb_ns_per_cell"), "ns"},
        {"core.comb_ns_per_cell_loaded", probed("core.comb_ns_per_cell_loaded"), "ns"},
        {"core.index_build_ms", probed("core.index_build_ms"), "ms"},
        {"core.cells", cells, "count"},
        {"scheduler.batch_size", ratio(computed, batches), "count"},
        {"scheduler.coalesced", d([](const auto& e) { return e.scheduler.coalesced; }), "count"},
        {"scheduler.rejected", d([](const auto& e) { return e.scheduler.rejected; }), "count"},
        {"braid.compose_ms", probed("braid.compose_ms"), "ms"},
        corpus[0],
        corpus[1],
        corpus[2],
        {"corpus.upsert_ms", probed("corpus.upsert_ms"), "ms"},
        {"router.route_us", routed ? median_of(spans, "router.route") : probed("router.route_us"), "us"},
        {"router.forwarded", static_cast<double>(ra.forwarded - rb.forwarded), "count"},
        {"router.failovers", static_cast<double>(ra.failovers - rb.failovers), "count"},
        {"router.hedges", static_cast<double>(ra.hedges - rb.hedges), "count"},
        {"router.unavailable", static_cast<double>(ra.unavailable - rb.unavailable), "count"},
        {"router.shard_balance", shard_balance, "ratio"},
        {"trace.read_p50_overhead", ratio(traced_read_p50, read_p50) - 1.0, "ratio"},
    };

    layer_detail.push_back({"traced.read_p50_ms", traced_read_p50, "ms"});
    if (spans.by_name.count("scheduler.wait") != 0) {
      layer_detail.push_back({"scheduler.wait_ms", median_of(spans, "scheduler.wait") / 1e3, "ms"});
    }
    if (spans.by_name.count("corpus.upsert") != 0) {
      layer_detail.push_back({"corpus.upsert_span_ms", median_of(spans, "corpus.upsert") / 1e3, "ms"});
    }
    for (const auto& [name, summary] : spans.by_name) {
      layer_detail.push_back({name + ".count", static_cast<double>(summary.self_us.size()), "count"});
      layer_detail.push_back({name + ".self_us", median(summary.self_us), "us"});
      double total = 0.0;
      for (const double us : summary.self_us) total += us;
      layer_detail.push_back({name + ".self_total_ms", total / 1e3, "ms"});
    }
    traced.world.reset();
  }

  JsonObject stamp;
  stamp.str("workload", workload->name())
      .integer("seed", args.seed)
      .num("seconds", args.seconds)
      .boolean("trace", args.trace)
      .integer("nproc", static_cast<std::uint64_t>(semilocal::hardware_threads()))
      .str("kernel_dispatch", std::string(semilocal::kernel_dispatch().name))
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("git_sha", args.git_sha);
  std::string invariants = "[";
  for (const std::string& n : notes) invariants += (invariants.size() > 1 ? ", " : "") + JsonObject().str("held", n).text();
  for (const std::string& v : violations) invariants += (invariants.size() > 1 ? ", " : "") + JsonObject().str("violated", v).text();
  invariants += "]";
  JsonObject report;
  report.raw("stamp", stamp.text())
      .metrics("end_to_end", detail)
      .integer("wrong_answers", wrong)
      .raw("invariants", invariants);
  if (args.trace) report.metrics("per_layer", layers).metrics("per_layer_detail", layer_detail);
  std::cout << report.text() << "\n";

  // A wrong answer or a failed request always makes the run incorrect; only
  // a correct run can be refused as invalid for a late generator.
  const bool correct = wrong == 0 && violations.empty();
  if (correct && open_loop && gen_late_p90 > kMaxGenLateP90Ms) {
    std::fprintf(stderr,
                 "perfbench: invalid run: generator p90 lateness %.3f ms exceeds %.1f ms\n",
                 gen_late_p90, kMaxGenLateP90Ms);
    return 3;
  }
  JsonObject result;
  result.boolean("correct", correct)
      .integer("attempted", load.records.size())
      .integer("failed", failed)
      .metrics("metrics", args.trace ? layers : e2e);
  std::cout << result.text() << std::endl;
  if (!correct) {
    std::fprintf(stderr, "perfbench: %llu wrong answers, %zu broken invariants\n",
                 static_cast<unsigned long long>(wrong), violations.size());
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
