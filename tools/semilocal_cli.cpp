// semilocal_cli -- command-line front end to the library.
//
// Subcommands:
//   compare <a.fasta> <b.fasta> [--algorithm NAME] [--parallel]
//           [--profile WIDTH] [--save-kernel PATH]
//       Compares the first record of each file: global LCS, identity, indel
//       distance; optional window-identity profile; optional kernel dump.
//   query <kernel.bin> <kind> <x> <y>
//       Answers one semi-local query from a saved kernel. kind is one of
//       string-substring | substring-string | prefix-suffix | suffix-prefix | h.
//   query <store-dir> <kind> <x> <y> --ids idA,idB
//       Same, from a precomputed kernel store: the pair's kernel is looked
//       up in the store index and loaded -- no recomputation.
//   precompute <corpus.fasta> --store DIR [--algorithm NAME] [--parallel]
//       Builds a kernel store: computes and persists the kernels of every
//       record pair of the corpus, plus an index.tsv mapping id pairs to
//       store keys. Re-running resumes (existing kernels are skipped).
//   generate [--length N] [--gc FRAC] [--pair] [--seed S] [--out PATH]
//       Emits synthetic genome FASTA (one record, or a related pair).
//   dotplot <a.fasta> <b.fasta> [--rows R] [--cols C]
//       ASCII similarity dotplot between the two sequences.
//   braid <stringA> <stringB>
//       Renders the combing grid, the kernel matrix and the strand wiring
//       (small inputs; teaching/debugging aid).
//   store migrate <dir>
//       Rewrites every v2 (raw) kernel in a store directory as v3
//       (block-compressed), in place via temp-and-rename. Resumable:
//       already-v3 files are skipped, so an interrupted run just re-runs.
//   store stat <dir>
//       Per-format file counts, on-disk bytes, and the compression ratio
//       against the raw v2 encoding.
//   shardctl <host:port|port> status
//   shardctl <host:port|port> drain|undrain <shard>
//   shardctl <host:port|port> weight <shard> <w>
//       Admin frontend to a running semilocal_router (Op::kShardCtl over the
//       wire protocol): inspect ring + per-shard health, drain a backend for
//       maintenance (weight -> 0; in-flight exchanges finish), restore it,
//       or rebalance by editing its ring weight. Every mutation bumps the
//       ring generation and echoes the router's stats document.
//   upsert <host:port|port> <doc.fasta> [--id ID]
//       Versioned corpus upsert (Op::kUpsert) against a running
//       semilocal_serve started with --corpus-dir (or a router in front of
//       one). Sends raw residues; the server chunks the document, reuses
//       every cached chunk braid, recomputes only what changed, and bumps
//       the corpus generation. Prints the upsert report JSON.
//   plot <a.fasta> <b.fasta> --port P [--host H] [--rows R] [--cols C]
//        [--step S] [--window W] [--quant 8|16] [--format pgm|csv] [--out PATH]
//       Alignment dot-plot over the wire: one Op::kAlignmentPlot request to a
//       running semilocal_serve or semilocal_router; the streamed tile frames
//       are reassembled client-side (duplicates from router failover are
//       deduplicated) and written as a binary PGM heatmap or a CSV of raw
//       window LCS scores. --step 0 (the default) picks the largest stride
//       whose grid still fits both sequences.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <fstream>
#include <sstream>
#include <vector>

#include "align/distance.hpp"
#include "search/dotplot.hpp"
#include "core/api.hpp"
#include "core/braid_render.hpp"
#include "core/kernel_codec.hpp"
#include "core/query_index.hpp"
#include "core/serialize.hpp"
#include "engine/corpus.hpp"
#include "engine/corpus_version.hpp"
#include "engine/protocol.hpp"
#include "fd_stream.hpp"
#include "util/cli.hpp"
#include "util/fasta.hpp"
#include "util/timer.hpp"

using namespace semilocal;

namespace {

int usage() {
  std::cerr <<
      "usage: semilocal_cli <command> ...\n"
      "  compare <a.fasta> <b.fasta> [--algorithm antidiag|hybrid|tiled|recursive]\n"
      "          [--parallel] [--profile WIDTH] [--save-kernel PATH]\n"
      "  query <kernel.bin> <kind> <x> <y>   (kind: string-substring, substring-string,\n"
      "                                       prefix-suffix, suffix-prefix, h)\n"
      "  query <store-dir> <kind> <x> <y> --ids idA,idB\n"
      "  precompute <corpus.fasta> --store DIR [--algorithm NAME] [--parallel]\n"
      "             [--cache-mb N]\n"
      "  generate [--length N] [--gc F] [--pair] [--seed S] [--out PATH]\n"
      "  dotplot <a.fasta> <b.fasta> [--rows R] [--cols C]\n"
      "  braid <stringA> <stringB>\n"
      "  store migrate <dir>     (rewrite v2 kernels as compressed v3, in place)\n"
      "  store stat <dir>        (per-format counts, bytes, compression ratio)\n"
      "  shardctl <host:port|port> status\n"
      "  shardctl <host:port|port> drain|undrain <shard>\n"
      "  shardctl <host:port|port> weight <shard> <w>\n"
      "  upsert <host:port|port> <doc.fasta> [--id ID]\n"
      "         (versioned corpus upsert against a server started with\n"
      "          --corpus-dir; prints the upsert report JSON)\n"
      "  plot <a.fasta> <b.fasta> --port P [--host H] [--rows R] [--cols C]\n"
      "       [--step S] [--window W] [--quant 8|16] [--format pgm|csv]\n"
      "       [--out PATH]    (streamed dot-plot from a running server)\n";
  return 2;
}

Strategy parse_strategy(const std::string& name) {
  if (name == "antidiag") return Strategy::kAntidiagSimd;
  if (name == "hybrid") return Strategy::kHybrid;
  if (name == "tiled") return Strategy::kHybridTiled;
  if (name == "recursive") return Strategy::kRecursive;
  if (name == "rowmajor") return Strategy::kRowMajor;
  if (name == "loadbalanced") return Strategy::kLoadBalanced;
  throw std::invalid_argument("unknown --algorithm '" + name + "'");
}

Sequence first_record(const std::string& path, std::string& id) {
  const auto records = read_fasta_file(path);
  if (records.empty()) throw std::runtime_error(path + ": no FASTA records");
  id = records.front().id;
  return pack_dna(records.front().residues);
}

int cmd_compare(const CliArgs& args) {
  if (args.positional().size() != 2) return usage();
  std::string id_a;
  std::string id_b;
  const Sequence a = first_record(args.positional()[0], id_a);
  const Sequence b = first_record(args.positional()[1], id_b);
  const Strategy strategy = parse_strategy(args.option_or("algorithm", "tiled"));
  const bool parallel = args.has_flag("parallel");
  std::cout << id_a << ": " << a.size() << " bp, " << id_b << ": " << b.size() << " bp\n";
  Timer t;
  const auto kernel = semi_local_kernel(a, b, {.strategy = strategy, .parallel = parallel});
  std::cout << "kernel (" << strategy_name(strategy) << (parallel ? ", parallel" : "")
            << ") in " << t.seconds() << " s\n";
  const Index lcs = kernel.lcs();
  const auto longer = static_cast<double>(std::max(a.size(), b.size()));
  std::cout << "LCS = " << lcs << "  identity = " << 100.0 * static_cast<double>(lcs) / longer
            << "%  indel distance = "
            << static_cast<Index>(a.size()) + static_cast<Index>(b.size()) - 2 * lcs << "\n";
  const Index width = args.int_option_or("profile", 0);
  if (width > 0) {
    if (width > kernel.n()) throw std::invalid_argument("--profile wider than |b|");
    std::cout << "\nwindow profile (width " << width << "):\n";
    const Index step = std::max<Index>(1, width / 2);
    const QueryIndex index(kernel);
    for (Index j0 = 0; j0 + width <= kernel.n(); j0 += step) {
      const Index s = index.string_substring(j0, j0 + width);
      std::cout << "  b[" << j0 << ", " << j0 + width << "): LCS " << s << " ("
                << 100.0 * static_cast<double>(s) / static_cast<double>(width) << "%)\n";
    }
  }
  if (const auto path = args.option("save-kernel")) {
    save_kernel_file(*path, kernel);
    std::cout << "kernel saved to " << *path << "\n";
  }
  return 0;
}

// Resolves a query target: a single kernel file, or a store directory plus
// --ids idA,idB looked up through the store's index.tsv.
SemiLocalKernel load_query_kernel(const CliArgs& args) {
  const std::string& target = args.positional()[0];
  if (!std::filesystem::is_directory(target)) return load_kernel_file(target);
  const auto ids = args.option("ids");
  if (!ids) throw std::invalid_argument("store queries need --ids idA,idB");
  const auto comma = ids->find(',');
  if (comma == std::string::npos) {
    throw std::invalid_argument("--ids expects two record ids separated by a comma");
  }
  const std::string id_a = ids->substr(0, comma);
  const std::string id_b = ids->substr(comma + 1);
  const auto index =
      read_corpus_index((std::filesystem::path(target) / "index.tsv").string());
  for (const CorpusIndexEntry& entry : index) {
    if (entry.id_a == id_a && entry.id_b == id_b) {
      return load_kernel_file(
          (std::filesystem::path(target) / (entry.key_hex + ".slk")).string());
    }
  }
  throw std::runtime_error("pair (" + id_a + ", " + id_b +
                           ") not in store index (note: ids are order-sensitive)");
}

int cmd_query(const CliArgs& args) {
  if (args.positional().size() != 4) return usage();
  const auto kernel = load_query_kernel(args);
  const std::string kind = args.positional()[1];
  const Index x = std::stoll(args.positional()[2]);
  const Index y = std::stoll(args.positional()[3]);
  Index answer = 0;
  if (kind == "string-substring") answer = kernel.string_substring(x, y);
  else if (kind == "substring-string") answer = kernel.substring_string(x, y);
  else if (kind == "prefix-suffix") answer = kernel.prefix_suffix(x, y);
  else if (kind == "suffix-prefix") answer = kernel.suffix_prefix(x, y);
  else if (kind == "h") answer = kernel.h(x, y);
  else return usage();
  std::cout << answer << "\n";
  return 0;
}

int cmd_precompute(const CliArgs& args) {
  if (args.positional().size() != 1) return usage();
  const auto store_dir = args.option("store");
  if (!store_dir) throw std::invalid_argument("precompute needs --store DIR");
  const auto records = read_fasta_file(args.positional()[0]);
  if (records.size() < 2) {
    throw std::runtime_error("precompute needs a corpus of at least two records");
  }
  KernelStore store(
      {.dir = *store_dir,
       .cache_bytes = static_cast<std::size_t>(args.int_option_or("cache-mb", 64)) << 20,
       .persist = true});
  SemiLocalOptions opts;
  opts.strategy = parse_strategy(args.option_or("algorithm", "antidiag"));
  Timer t;
  const CorpusBuildReport report =
      precompute_corpus(records, store, opts, args.has_flag("parallel"));
  const std::string index_path =
      (std::filesystem::path(*store_dir) / "index.tsv").string();
  write_corpus_index(index_path, report.entries);
  std::cout << records.size() << " records, " << report.entries.size() << " pairs: "
            << report.computed << " kernels computed, " << report.reused
            << " reused from store, in " << t.seconds() << " s\n";
  std::cout << "index written to " << index_path << "\n";
  if (report.persist_failures > 0) {
    std::cerr << "warning: " << report.persist_failures
              << " kernels could not be persisted (disk errors); a re-run will "
                 "recompute them\n";
    return 1;
  }
  return 0;
}

int cmd_generate(const CliArgs& args) {
  GenomeModel model;
  model.length = args.int_option_or("length", 30000);
  model.gc_content = args.double_option_or("gc", 0.41);
  const auto seed = static_cast<std::uint64_t>(args.int_option_or("seed", 42));
  std::vector<FastaRecord> records;
  if (args.has_flag("pair")) {
    MutationModel mutations;
    auto [ga, gb] = generate_genome_pair(model, mutations, seed);
    records.push_back(std::move(ga));
    records.push_back(std::move(gb));
  } else {
    records.push_back(generate_genome(model, seed));
  }
  const std::string out_path = args.option_or("out", "-");
  if (out_path == "-") {
    write_fasta(std::cout, records);
  } else {
    std::ofstream out(out_path);
    if (!out) throw std::runtime_error("cannot open " + out_path);
    write_fasta(out, records);
    std::cout << "wrote " << records.size() << " record(s) to " << out_path << "\n";
  }
  return 0;
}

int cmd_dotplot(const CliArgs& args) {
  if (args.positional().size() != 2) return usage();
  std::string id_a;
  std::string id_b;
  const Sequence a = first_record(args.positional()[0], id_a);
  const Sequence b = first_record(args.positional()[1], id_b);
  const Index rows = args.int_option_or("rows", 32);
  const Index cols = args.int_option_or("cols", 64);
  Timer t;
  const auto plot = compute_dotplot(a, b, rows, cols, {}, /*parallel=*/true);
  std::cout << id_a << " (rows) vs " << id_b << " (cols), computed in " << t.seconds()
            << " s\n";
  std::cout << render_dotplot(plot);
  return 0;
}

int cmd_braid(const CliArgs& args) {
  if (args.positional().size() != 2) return usage();
  const Sequence a = to_sequence(args.positional()[0]);
  const Sequence b = to_sequence(args.positional()[1]);
  if (a.size() > 40 || b.size() > 40) {
    throw std::invalid_argument("braid rendering is for strings up to length 40");
  }
  const auto kernel = semi_local_kernel(a, b, {.strategy = Strategy::kRowMajor});
  std::cout << "combing decisions:\n" << render_combing_grid(a, b) << "\n";
  std::cout << "kernel permutation P_{a,b} (order " << kernel.order() << "):\n"
            << render_permutation(kernel.permutation()) << "\n";
  std::cout << render_kernel_wiring(kernel) << "\n";
  std::cout << "LCS(a, b) = " << kernel.lcs() << "\n";
  return 0;
}

std::string slurp_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// The store's kernel files, sorted for deterministic reports. Quarantined
/// poison (`.slk.quarantined`) and writer temp files (`.slk.tmpN`) are not
/// kernels and are skipped.
std::vector<std::filesystem::path> store_kernel_files(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".slk") continue;
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

int cmd_store_migrate(const std::string& dir) {
  std::size_t migrated = 0;
  std::size_t skipped = 0;
  std::size_t failed = 0;
  std::size_t bytes_before = 0;
  std::size_t bytes_after = 0;
  for (const auto& path : store_kernel_files(dir)) {
    try {
      const std::string bytes = slurp_file(path);
      if (kernel_format_version(bytes) == kKernelFormatV3) {
        ++skipped;  // resumable: an interrupted migration just re-runs
        bytes_before += bytes.size();
        bytes_after += bytes.size();
        continue;
      }
      const SemiLocalKernel kernel = load_kernel_bytes(bytes);
      const std::string encoded = save_kernel_bytes(kernel, KernelFormat::kV3Compressed);
      // Temp-and-rename so a crash mid-write never leaves a torn kernel at
      // the serving path; readers see the old file or the new one, whole.
      const std::filesystem::path tmp = path.string() + ".migrate.tmp";
      {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()))) {
          throw std::runtime_error("short write to " + tmp.string());
        }
      }
      std::filesystem::rename(tmp, path);
      ++migrated;
      bytes_before += bytes.size();
      bytes_after += encoded.size();
    } catch (const std::exception& e) {
      ++failed;
      std::cerr << "semilocal_cli: " << path.string() << ": " << e.what() << "\n";
    }
  }
  std::cout << migrated << " migrated, " << skipped << " already v3, " << failed
            << " failed\n";
  if (bytes_after > 0) {
    std::cout << bytes_before << " -> " << bytes_after << " bytes ("
              << static_cast<double>(bytes_before) / static_cast<double>(bytes_after)
              << "x)\n";
  }
  return failed > 0 ? 1 : 0;
}

int cmd_store_stat(const std::string& dir) {
  std::size_t v2_files = 0;
  std::size_t v3_files = 0;
  std::size_t other_files = 0;
  std::size_t bytes_on_disk = 0;
  std::size_t raw_equivalent = 0;
  for (const auto& path : store_kernel_files(dir)) {
    const std::string bytes = slurp_file(path);
    bytes_on_disk += bytes.size();
    const std::uint32_t version = kernel_format_version(bytes);
    if ((version != kKernelFormatV2 && version != kKernelFormatV3) ||
        bytes.size() < 28) {
      ++other_files;
      continue;
    }
    // v2 and v3 share the header prefix: m at [12, 20), n at [20, 28).
    std::int64_t m = 0;
    std::int64_t n = 0;
    std::memcpy(&m, bytes.data() + 12, sizeof(m));
    std::memcpy(&n, bytes.data() + 20, sizeof(n));
    raw_equivalent += kernel_v2_encoded_bytes(m + n);
    version == kKernelFormatV2 ? ++v2_files : ++v3_files;
  }
  std::cout << "kernels: " << v2_files + v3_files << " (" << v3_files
            << " v3 compressed, " << v2_files << " v2 raw";
  if (other_files > 0) std::cout << ", " << other_files << " unreadable";
  std::cout << ")\n";
  std::cout << "bytes on disk: " << bytes_on_disk << "\n";
  if (bytes_on_disk > 0) {
    std::cout << "raw-equivalent bytes: " << raw_equivalent << "\n"
              << "compression ratio: "
              << static_cast<double>(raw_equivalent) / static_cast<double>(bytes_on_disk)
              << "x\n";
  }
  return 0;
}

/// Connects a TCP socket to host:port; throws with `who` in the message on
/// failure. Caller owns the fd (wrap it in tools::FdStream).
int dial(const std::string& who, const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error(who + ": socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error(who + ": bad host " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error(who + ": cannot connect to " + host + ":" +
                             std::to_string(port));
  }
  return fd;
}

/// `shardctl <host:port|port> <verb> [shard] [weight]`: one kShardCtl frame
/// to a running router, echoing its stats document. Exit 0 on kOk.
int cmd_shardctl(const CliArgs& args) {
  const auto& pos = args.positional();
  if (pos.size() < 2) return usage();

  std::string host = "127.0.0.1";
  std::string port_text = pos[0];
  if (const std::size_t colon = pos[0].rfind(':'); colon != std::string::npos) {
    host = pos[0].substr(0, colon);
    port_text = pos[0].substr(colon + 1);
  }
  const int port = std::stoi(port_text);

  Request request;
  request.op = Op::kShardCtl;
  const std::string& verb = pos[1];
  if (verb == "status") {
    if (pos.size() != 2) return usage();
    request.x = static_cast<Index>(ShardCtl::kStatus);
  } else if (verb == "drain" || verb == "undrain") {
    if (pos.size() != 3) return usage();
    request.x = static_cast<Index>(verb == "drain" ? ShardCtl::kDrain : ShardCtl::kUndrain);
    request.y = std::stoll(pos[2]);
  } else if (verb == "weight") {
    if (pos.size() != 4) return usage();
    request.x = static_cast<Index>(ShardCtl::kWeight);
    request.y = std::stoll(pos[2]);
    request.a = to_sequence(pos[3]);  // ASCII decimal, per the protocol doc
  } else {
    return usage();
  }

  tools::FdStream stream(dial("shardctl", host, port));
  write_frame(stream.out, encode_request(request));
  const auto payload = read_frame(stream.in);
  if (!payload) throw std::runtime_error("shardctl: router closed the connection");
  const Response response = decode_response(*payload);
  if (response.status != Status::kOk) {
    std::cerr << "shardctl: " << response.text << "\n";
    return 1;
  }
  std::cout << response.text << "\n";
  return 0;
}

/// `upsert <host:port|port> <doc.fasta> [--id ID]`: one Op::kUpsert exchange
/// against a running semilocal_serve (or via semilocal_router, which relays
/// it to the document's home shard). The request carries the document id in
/// the `a` slot and the *raw* residues in `b` -- the server packs them per
/// its own --dna flag, exactly as it does for query payloads. The response
/// value is the new document version; the text is the upsert report JSON
/// (chunks computed vs reused, prefix reuse, generation).
int cmd_upsert(const CliArgs& args) {
  const auto& pos = args.positional();
  if (pos.size() != 2) return usage();

  std::string host = "127.0.0.1";
  std::string port_text = pos[0];
  if (const std::size_t colon = pos[0].rfind(':'); colon != std::string::npos) {
    host = pos[0].substr(0, colon);
    port_text = pos[0].substr(colon + 1);
  }
  const int port = std::stoi(port_text);

  const auto records = read_fasta_file(pos[1]);
  if (records.empty()) throw std::runtime_error(pos[1] + ": no FASTA records");
  const std::string id = args.option_or("id", records.front().id);
  if (!valid_document_id(id)) {
    throw std::invalid_argument("upsert: invalid document id '" + id + "'");
  }

  Request request;
  request.op = Op::kUpsert;
  request.a = to_sequence(id);
  request.b = records.front().residues;  // raw: the server applies its --dna

  tools::FdStream stream(dial("upsert", host, port));
  write_frame(stream.out, encode_request(request));
  const auto payload = read_frame(stream.in);
  if (!payload) throw std::runtime_error("upsert: server closed the connection");
  const Response response = decode_response(*payload);
  if (response.status != Status::kOk) {
    std::cerr << "upsert: " << response.text << "\n";
    return 1;
  }
  std::cout << response.text << "\n";
  return 0;
}

/// `plot <a.fasta> <b.fasta> --port P`: one streamed Op::kAlignmentPlot
/// exchange against a running semilocal_serve or semilocal_router. Tile
/// frames are drained until the terminal frame and reassembled client-side;
/// the PlotAssembler's per-cell dedup makes router failover re-sends
/// harmless. Output: binary PGM (quant-8 heatmap) or CSV of raw scores.
int cmd_plot(const CliArgs& args) {
  if (args.positional().size() != 2) return usage();
  const auto port_text = args.option("port");
  if (!port_text) throw std::invalid_argument("plot needs --port P");
  const std::string host = args.option_or("host", "127.0.0.1");
  const std::string format = args.option_or("format", "pgm");
  if (format != "pgm" && format != "csv") {
    throw std::invalid_argument("--format must be pgm or csv");
  }

  std::string id_a;
  std::string id_b;
  Request request;
  request.op = Op::kAlignmentPlot;
  request.a = first_record(args.positional()[0], id_a);
  request.b = first_record(args.positional()[1], id_b);
  const auto m = static_cast<Index>(request.a.size());
  const auto n = static_cast<Index>(request.b.size());

  PlotSpec spec;
  spec.rows = args.int_option_or("rows", 64);
  spec.cols = args.int_option_or("cols", 64);
  spec.row0 = args.int_option_or("row0", 0);
  spec.col0 = args.int_option_or("col0", 0);
  spec.window = args.int_option_or("window", std::min<Index>(64, std::min(m, n)));
  // PGM pixels are bytes anyway, so default to the quant-8 wire encoding
  // there (4x smaller tiles at window 2000); CSV reports raw u16 scores.
  spec.quant = static_cast<std::uint8_t>(
      args.int_option_or("quant", format == "pgm" ? 8 : 16));
  if (spec.row0 + spec.window > m || spec.col0 + spec.window > n) {
    throw std::invalid_argument("window does not fit the sequences at the origin");
  }
  spec.step = args.int_option_or("step", 0);
  if (spec.step < 1) {
    // Largest stride whose grid still fits both sequences end to end.
    const Index fit_r =
        spec.rows > 1 ? (m - spec.window - spec.row0) / (spec.rows - 1) : 1;
    const Index fit_c =
        spec.cols > 1 ? (n - spec.window - spec.col0) / (spec.cols - 1) : 1;
    spec.step = std::max<Index>(1, std::min(fit_r, fit_c));
  }
  // A requested grid that overhangs the pair would be rejected server-side;
  // shrink it to what fits instead and report the final geometry.
  spec.rows = std::min(spec.rows, (m - spec.window - spec.row0) / spec.step + 1);
  spec.cols = std::min(spec.cols, (n - spec.window - spec.col0) / spec.step + 1);
  request.plot = spec;

  std::cerr << id_a << " (" << m << " bp) vs " << id_b << " (" << n << " bp): "
            << spec.rows << "x" << spec.cols << " grid, window " << spec.window
            << ", step " << spec.step << ", quant " << int(spec.quant) << "\n";

  Timer t;
  tools::FdStream stream(dial("plot", host, std::stoi(*port_text)));
  write_frame(stream.out, encode_request(request));
  PlotAssembler assembler(spec.rows, spec.cols, spec.quant);
  std::uint64_t frames = 0;
  while (true) {
    const auto payload = read_frame(stream.in);
    if (!payload) throw std::runtime_error("plot: server closed mid-stream");
    const Response response = decode_response(*payload);
    if (response.status != Status::kOk) {
      throw std::runtime_error("plot: server said: " + response.text);
    }
    ++frames;
    assembler.feed(response);
    if (terminal_response_frame(response)) break;
  }
  if (!assembler.complete()) {
    throw std::runtime_error("plot: stream ended with " +
                             std::to_string(assembler.filled()) + "/" +
                             std::to_string(spec.cells()) + " cells filled");
  }
  std::cerr << spec.cells() << " cells in " << frames << " tile frames ("
            << assembler.duplicate_cells() << " duplicate cells) in "
            << t.seconds() << " s\n";

  const std::string out_path =
      args.option_or("out", format == "pgm" ? "plot.pgm" : "-");
  std::ofstream file;
  if (out_path != "-") {
    file.open(out_path, std::ios::binary | std::ios::trunc);
    if (!file) throw std::runtime_error("cannot open " + out_path);
  }
  std::ostream& out = out_path == "-" ? std::cout : file;
  if (format == "pgm") {
    out << "P5\n" << spec.cols << " " << spec.rows << "\n255\n";
    for (Index u = 0; u < spec.rows; ++u) {
      for (Index v = 0; v < spec.cols; ++v) {
        Index value = assembler.cell(u, v);
        if (spec.quant == 16) value = (value * 255 + spec.window / 2) / spec.window;
        out.put(static_cast<char>(static_cast<unsigned char>(value)));
      }
    }
  } else {
    for (Index u = 0; u < spec.rows; ++u) {
      for (Index v = 0; v < spec.cols; ++v) {
        if (v > 0) out << ',';
        out << assembler.cell(u, v);
      }
      out << '\n';
    }
  }
  out.flush();
  if (!out) throw std::runtime_error("plot: short write to " + out_path);
  if (out_path != "-") std::cerr << format << " written to " << out_path << "\n";
  return 0;
}

int cmd_store(const CliArgs& args) {
  if (args.positional().size() != 2) return usage();
  const std::string& sub = args.positional()[0];
  const std::string& dir = args.positional()[1];
  if (!std::filesystem::is_directory(dir)) {
    throw std::invalid_argument(dir + " is not a directory");
  }
  if (sub == "migrate") return cmd_store_migrate(dir);
  if (sub == "stat") return cmd_store_stat(dir);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const CliArgs args = CliArgs::parse(argc, argv, 2, {"parallel", "pair"});
    if (command == "compare") return cmd_compare(args);
    if (command == "query") return cmd_query(args);
    if (command == "precompute") return cmd_precompute(args);
    if (command == "generate") return cmd_generate(args);
    if (command == "dotplot") return cmd_dotplot(args);
    if (command == "braid") return cmd_braid(args);
    if (command == "store") return cmd_store(args);
    if (command == "shardctl") return cmd_shardctl(args);
    if (command == "upsert") return cmd_upsert(args);
    if (command == "plot") return cmd_plot(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "semilocal_cli: " << e.what() << "\n";
    return 1;
  }
}
