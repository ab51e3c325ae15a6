#include "engine/corpus.hpp"

#include <charconv>
#include <deque>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace semilocal {

CorpusBuildReport precompute_corpus(const std::vector<FastaRecord>& records,
                                    ComparisonEngine& engine) {
  std::vector<Sequence> packed;
  packed.reserve(records.size());
  for (const FastaRecord& record : records) packed.push_back(pack_dna(record.residues));

  KernelStore& store = engine.store();
  CorpusBuildReport report;
  struct Pending {
    PairKey key;
    std::size_t a;
    std::size_t b;
  };
  std::vector<Pending> pending;  // the subset of pairs needing compute
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (std::size_t j = i + 1; j < records.size(); ++j) {
      const PairKey key = make_pair_key(packed[i], packed[j]);
      report.entries.push_back(CorpusIndexEntry{
          .id_a = records[i].id,
          .id_b = records[j].id,
          .m = static_cast<Index>(packed[i].size()),
          .n = static_cast<Index>(packed[j].size()),
          .key_hex = key.hex()});
      if (store.on_disk(key)) {
        ++report.reused;
        continue;
      }
      pending.push_back({key, i, j});
    }
  }

  // Bounded lookahead: a large corpus never holds more than kLookahead
  // kernels in flight on top of the store cache, and never floods the
  // scheduler's admission queue. The window is refilled once half of it has
  // been consumed, so the drain that follows shares a batch of pairs with
  // the workers instead of running every pair itself the moment it is
  // submitted.
  constexpr std::size_t kLookahead = 64;
  std::deque<std::shared_future<CachedKernelPtr>> ahead;
  std::size_t next = 0;
  const auto top_up = [&] {
    while (next < pending.size() && ahead.size() < kLookahead) {
      const Pending& pair = pending[next++];
      ahead.push_back(engine.entry_async_keyed(pair.key, packed[pair.a], packed[pair.b]));
    }
    engine.drain();
  };
  top_up();
  while (!ahead.empty()) {
    ahead.front().get();
    ahead.pop_front();
    ++report.computed;
    if (ahead.size() <= kLookahead / 2) top_up();
  }

  // Give pairs that hit a transient write fault one more chance in-run, then
  // surface whatever this run computed but could not land on disk as its
  // durability loss instead of pretending the corpus is fully persisted.
  store.retry_pending();
  if (store.persists()) {
    for (const Pending& pair : pending) {
      if (!store.on_disk(pair.key)) ++report.persist_failures;
    }
  }
  return report;
}

bool valid_document_id(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (const char c : id) {
    const auto u = static_cast<unsigned char>(c);
    // Printable, non-space ASCII only: ids land in whitespace-separated
    // index.tsv columns and in document filenames.
    if (u <= ' ' || u > '~' || c == '/' || c == '\\') return false;
  }
  return true;
}

namespace {

constexpr std::string_view kGenerationTag = "#generation\t";
constexpr std::string_view kDocTag = "#doc\t";

std::string serialize_corpus_index(const CorpusIndex& index) {
  std::string out = std::string(kGenerationTag) + std::to_string(index.generation) + '\n';
  for (const CorpusDocEntry& d : index.docs) {
    out += std::string(kDocTag) + d.id + '\t' + std::to_string(d.version) + '\t' +
           std::to_string(d.length) + '\n';
  }
  out += "#id_a\tid_b\tm\tn\tkey\tver_a\tver_b\n";
  for (const CorpusIndexEntry& e : index.pairs) {
    out += e.id_a + '\t' + e.id_b + '\t' + std::to_string(e.m) + '\t' +
           std::to_string(e.n) + '\t' + e.key_hex + '\t' + std::to_string(e.ver_a) +
           '\t' + std::to_string(e.ver_b) + '\n';
  }
  return out;
}

/// Parses `token`, whole, as a non-negative integer (a generation, count or
/// version); false on a sign, stray characters, overflow or an empty token.
template <typename Int>
bool parse_whole(std::string_view token, Int& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_signed_v<Int>) return out >= 0;
  return true;
}

bool is_pair_key_hex(std::string_view key) {
  if (key.size() != 32) return false;
  for (const char c : key) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

std::vector<std::string> split_fields(std::string_view line) {
  std::vector<std::string> fields;
  std::istringstream in{std::string(line)};
  for (std::string field; in >> field;) fields.push_back(std::move(field));
  return fields;
}

}  // namespace

void publish_corpus_index(const std::string& path, const CorpusIndex& index, Env* env) {
  if (env == nullptr) env = &real_env();
  const std::string tmp = path + ".tmp";
  try {
    env->write_file(tmp, serialize_corpus_index(index));
    env->rename_file(tmp, path);
  } catch (const EnvError& e) {
    // The torn temp file (if any) must not shadow a later publish attempt.
    try {
      env->remove_file(tmp);
    } catch (const EnvError&) {
    }
    throw std::runtime_error(std::string("publish_corpus_index: ") + e.what());
  }
}

CorpusIndex read_corpus_index(const std::string& path, Env* env) {
  if (env == nullptr) env = &real_env();
  std::string data;
  try {
    data = env->read_file(path);
  } catch (const EnvError& e) {
    throw std::runtime_error(std::string("read_corpus_index: ") + e.what());
  }
  CorpusIndex index;
  std::istringstream in(data);
  std::string line;
  for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
    const auto fail = [&](const std::string& what) {
      throw std::runtime_error("read_corpus_index: " + path + ":" +
                               std::to_string(line_no) + ": " + what + ": " + line);
    };
    if (line.empty()) continue;
    if (line.rfind(kGenerationTag, 0) == 0) {
      if (!parse_whole(std::string_view(line).substr(kGenerationTag.size()),
                       index.generation)) {
        fail("malformed #generation value");
      }
      continue;
    }
    if (line.rfind(kDocTag, 0) == 0) {
      const auto fields = split_fields(std::string_view(line).substr(kDocTag.size()));
      CorpusDocEntry doc;
      if (fields.size() != 3 || !valid_document_id(fields[0]) ||
          !parse_whole(fields[1], doc.version) || !parse_whole(fields[2], doc.length)) {
        fail("malformed #doc line");
      }
      doc.id = fields[0];
      index.docs.push_back(std::move(doc));
      continue;
    }
    if (line[0] == '#') continue;  // the column header, or a comment

    // Pre-versioning indexes carry five columns; their versions are 0.
    const auto fields = split_fields(line);
    if (fields.size() != 5 && fields.size() != 7) fail("malformed pair row");
    CorpusIndexEntry entry;
    entry.id_a = fields[0];
    entry.id_b = fields[1];
    if (!parse_whole(fields[2], entry.m) || !parse_whole(fields[3], entry.n)) {
      fail("m and n must be non-negative integers");
    }
    if (!is_pair_key_hex(fields[4])) fail("key is not 32 lowercase hex digits");
    entry.key_hex = fields[4];
    if (fields.size() == 7 &&
        (!parse_whole(fields[5], entry.ver_a) || !parse_whole(fields[6], entry.ver_b))) {
      fail("versions must be non-negative integers");
    }
    index.pairs.push_back(std::move(entry));
  }
  return index;
}

}  // namespace semilocal
