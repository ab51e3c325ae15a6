#include "engine/corpus_version.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "engine/key.hpp"

namespace semilocal {

namespace {

/// Document bytes on disk: one little-endian i32 per symbol, so arbitrary
/// alphabets (packed DNA, raw bytes, the paper's integer workloads) persist
/// losslessly.
std::string encode_symbols(const Sequence& bytes) {
  std::string out;
  out.reserve(bytes.size() * 4);
  for (const Symbol s : bytes) {
    const auto u = static_cast<std::uint32_t>(s);
    out.push_back(static_cast<char>(u & 0xff));
    out.push_back(static_cast<char>((u >> 8) & 0xff));
    out.push_back(static_cast<char>((u >> 16) & 0xff));
    out.push_back(static_cast<char>((u >> 24) & 0xff));
  }
  return out;
}

Sequence decode_symbols(const std::string& blob) {
  if (blob.size() % 4 != 0) {
    throw std::runtime_error("corpus: torn document file (size not 4-aligned)");
  }
  Sequence out;
  out.reserve(blob.size() / 4);
  for (std::size_t i = 0; i < blob.size(); i += 4) {
    const auto byte = [&](std::size_t k) {
      return static_cast<std::uint32_t>(static_cast<unsigned char>(blob[i + k]));
    };
    out.push_back(static_cast<Symbol>(byte(0) | (byte(1) << 8) | (byte(2) << 16) |
                                      (byte(3) << 24)));
  }
  return out;
}

std::shared_future<CachedKernelPtr> ready_future(CachedKernelPtr entry) {
  std::promise<CachedKernelPtr> promise;
  promise.set_value(std::move(entry));
  return promise.get_future().share();
}

}  // namespace

std::string UpsertReport::json() const {
  std::ostringstream out;
  out << "{\"id\": \"" << id << "\", \"version\": " << version
      << ", \"generation\": " << generation << ", \"changed\": " << (changed ? 1 : 0)
      << ", \"pairs\": " << pairs << ", \"chunks_computed\": " << chunks_computed
      << ", \"chunks_reused\": " << chunks_reused
      << ", \"prefix_reused\": " << prefix_reused << ", \"composes\": " << composes
      << "}";
  return out.str();
}

CorpusManager::CorpusManager(ComparisonEngine& engine, CorpusManagerOptions options)
    : engine_(engine), options_(std::move(options)) {
  env_ = options_.env != nullptr ? options_.env : &real_env();
  if (options_.chunk < 1) throw std::invalid_argument("corpus: chunk must be >= 1");
  if (!options_.dir.empty()) {
    env_->create_dirs(options_.dir);
    env_->create_dirs(options_.dir + "/docs");
    load_from_dir();
  }
}

std::string CorpusManager::index_path() const { return options_.dir + "/index.tsv"; }

std::string CorpusManager::doc_path(const std::string& id, Index version) const {
  return options_.dir + "/docs/" + id + ".v" + std::to_string(version);
}

void CorpusManager::load_from_dir() {
  const std::string path = index_path();
  if (!env_->exists(path)) return;
  const CorpusIndex index = read_corpus_index(path, env_);
  generation_ = index.generation;
  for (const CorpusDocEntry& doc : index.docs) {
    std::string blob;
    try {
      blob = env_->read_file(doc_path(doc.id, doc.version));
    } catch (const EnvError& e) {
      throw std::runtime_error(std::string("corpus load: ") + e.what());
    }
    Sequence bytes = decode_symbols(blob);
    if (static_cast<Index>(bytes.size()) != doc.length) {
      throw std::runtime_error("corpus load: document " + doc.id + " v" +
                               std::to_string(doc.version) + " has " +
                               std::to_string(bytes.size()) + " symbols, manifest says " +
                               std::to_string(doc.length));
    }
    docs_[doc.id] = Doc{doc.version, std::move(bytes)};
  }
}

std::vector<CorpusIndexEntry> CorpusManager::entries_locked() const {
  std::vector<CorpusIndexEntry> out;
  for (auto i = docs_.begin(); i != docs_.end(); ++i) {
    for (auto j = std::next(i); j != docs_.end(); ++j) {
      out.push_back(CorpusIndexEntry{
          .id_a = i->first,
          .id_b = j->first,
          .m = static_cast<Index>(i->second.bytes.size()),
          .n = static_cast<Index>(j->second.bytes.size()),
          .key_hex = make_pair_key(i->second.bytes, j->second.bytes).hex(),
          .ver_a = i->second.version,
          .ver_b = j->second.version});
    }
  }
  return out;
}

void CorpusManager::publish_locked(std::uint64_t generation) {
  if (options_.dir.empty()) return;
  CorpusIndex index{.generation = generation, .pairs = entries_locked()};
  for (const auto& [id, doc] : docs_) {
    index.docs.push_back({id, doc.version, static_cast<Index>(doc.bytes.size())});
  }
  try {
    publish_corpus_index(index_path(), index, env_);
  } catch (const std::runtime_error& e) {
    throw CorpusPublishError(e.what());
  }
}

void CorpusManager::rebuild_pair(const Sequence& a, const Sequence& b,
                                 bool chunked_side_a, UpsertReport& report) {
  const Sequence& doc = chunked_side_a ? a : b;
  const Sequence& other = chunked_side_a ? b : a;
  const auto doc_len = static_cast<Index>(doc.size());
  std::vector<Index> ends;  // chunk boundaries: chunk i covers [ends[i-1], ends[i])
  for (Index lo = 0; lo < doc_len; lo += options_.chunk) {
    ends.push_back(std::min(doc_len, lo + options_.chunk));
  }
  if (ends.empty()) ends.push_back(0);  // an empty document is one empty chunk

  KernelStore& store = engine_.store();
  // `other` is the same in every prefix probe and every strip: digest it
  // once and pair it with each piece of `doc`.
  const std::uint64_t other_hash = sequence_digest(other);
  const auto other_len = static_cast<Index>(other.size());
  const auto key_for = [&](SequenceView piece) {
    const std::uint64_t piece_hash = sequence_digest(piece);
    const auto piece_len = static_cast<Index>(piece.size());
    return chunked_side_a ? pair_key(piece_hash, piece_len, other_hash, other_len)
                          : pair_key(other_hash, other_len, piece_hash, piece_len);
  };
  const auto prefix_key = [&](std::size_t i) {
    return key_for(SequenceView(doc.data(), static_cast<std::size_t>(ends[i - 1])));
  };

  // Longest composed prefix braid already in the store. Content addressing
  // makes this find the previous version's whole kernel on an append, and
  // the last clean boundary on an in-place edit -- also across restarts.
  std::size_t start = 0;
  CachedKernelPtr acc;
  for (std::size_t i = ends.size(); i >= 1; --i) {
    if (CachedKernelPtr hit = store.find(prefix_key(i))) {
      acc = std::move(hit);
      start = i;
      break;
    }
  }
  report.prefix_reused += start;
  if (start == ends.size()) return;  // the full pair kernel is already cached

  // Dirty strips are submitted together so the scheduler batches/coalesces
  // them; strips unchanged from an earlier version resolve off the store.
  std::vector<std::shared_future<CachedKernelPtr>> strips;
  strips.reserve(ends.size() - start);
  for (std::size_t i = start; i < ends.size(); ++i) {
    const Index lo = i == 0 ? 0 : ends[i - 1];
    const SequenceView piece(doc.data() + lo, static_cast<std::size_t>(ends[i] - lo));
    const PairKey key = key_for(piece);
    if (CachedKernelPtr hit = store.find(key)) {
      strips.push_back(ready_future(std::move(hit)));
      ++report.chunks_reused;
    } else {
      strips.push_back(chunked_side_a ? engine_.entry_async_keyed(key, piece, other)
                                      : engine_.entry_async_keyed(key, other, piece));
      ++report.chunks_computed;
    }
  }
  if (options_.drain_inline) engine_.drain();

  for (std::size_t i = start; i < ends.size(); ++i) {
    CachedKernelPtr strip = strips[i - start].get();
    if (acc == nullptr) {
      // First chunk: the strip *is* the prefix braid (same content key), so
      // it is already published under prefix_key(1).
      acc = std::move(strip);
      continue;
    }
    SemiLocalKernel composed =
        chunked_side_a
            ? compose_horizontal(acc->kernel(), strip->kernel(), options_.ant,
                                 &workspace_)
            : compose_vertical(acc->kernel(), strip->kernel(), options_.ant,
                               &workspace_);
    ++report.composes;
    acc = std::make_shared<const CachedKernel>(
        std::make_shared<const SemiLocalKernel>(std::move(composed)));
    // Publish the braid at this boundary: the final one is the pair kernel
    // itself, the inner ones are what the next append/edit resumes from.
    store.put(prefix_key(i + 1), acc);
  }
}

UpsertReport CorpusManager::upsert_document(const std::string& id, Sequence bytes) {
  if (!valid_document_id(id)) {
    throw std::invalid_argument("corpus: bad document id");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  UpsertReport report;
  report.id = id;

  const auto it = docs_.find(id);
  if (it != docs_.end() && it->second.bytes == bytes) {
    report.version = it->second.version;
    report.generation = generation_;
    return report;  // idempotent: same bytes, nothing to republish
  }
  const Index new_version = it == docs_.end() ? 1 : it->second.version + 1;

  // Rebuild the pair kernel against every other document from cached chunk
  // braids. Store writes are additive and content-addressed, so a failure
  // (or crash) beyond this point never corrupts the previous generation.
  for (const auto& [other_id, other] : docs_) {
    if (other_id == id) continue;
    const bool a_side = id < other_id;
    rebuild_pair(a_side ? bytes : other.bytes, a_side ? other.bytes : bytes, a_side,
                 report);
    ++report.pairs;
  }

  const bool existed = it != docs_.end();
  const Doc previous = existed ? it->second : Doc{};
  docs_[id] = Doc{new_version, bytes};
  const std::uint64_t new_generation = generation_ + 1;
  try {
    if (!options_.dir.empty()) {
      const std::string path = doc_path(id, new_version);
      const std::string tmp = path + ".tmp";
      try {
        env_->write_file(tmp, encode_symbols(bytes));
        env_->rename_file(tmp, path);
      } catch (const EnvError& e) {
        try {
          env_->remove_file(tmp);
        } catch (const EnvError&) {
        }
        throw CorpusPublishError(std::string("corpus: document write: ") + e.what());
      }
    }
    // Give any strip/prefix kernels that hit a transient persist fault one
    // more chance to land before the index references them.
    engine_.store().retry_pending();
    publish_locked(new_generation);
  } catch (...) {
    // The commit failed: disk still holds the previous generation, so roll
    // the in-memory state back to match it.
    if (existed) {
      docs_[id] = previous;
    } else {
      docs_.erase(id);
    }
    throw;
  }
  generation_ = new_generation;
  if (existed && !options_.dir.empty()) {
    // Superseded bytes are garbage once the new generation is committed.
    try {
      env_->remove_file(doc_path(id, previous.version));
    } catch (const EnvError&) {
    }
  }
  report.version = new_version;
  report.generation = generation_;
  report.changed = true;
  return report;
}

UpsertReport CorpusManager::remove_document(const std::string& id) {
  if (!valid_document_id(id)) {
    throw std::invalid_argument("corpus: bad document id");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  UpsertReport report;
  report.id = id;
  const auto it = docs_.find(id);
  if (it == docs_.end()) {
    report.generation = generation_;
    return report;  // removing an absent id is a no-op
  }
  const Doc removed = it->second;
  docs_.erase(it);
  const std::uint64_t new_generation = generation_ + 1;
  try {
    publish_locked(new_generation);
  } catch (...) {
    docs_[id] = removed;
    throw;
  }
  generation_ = new_generation;
  if (!options_.dir.empty()) {
    try {
      env_->remove_file(doc_path(id, removed.version));
    } catch (const EnvError&) {
    }
  }
  report.version = removed.version;
  report.generation = generation_;
  report.changed = true;
  return report;
}

std::uint64_t CorpusManager::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

std::size_t CorpusManager::documents() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return docs_.size();
}

std::optional<Index> CorpusManager::version(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = docs_.find(id);
  if (it == docs_.end()) return std::nullopt;
  return it->second.version;
}

std::optional<Sequence> CorpusManager::document(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = docs_.find(id);
  if (it == docs_.end()) return std::nullopt;
  return it->second.bytes;
}

std::vector<CorpusIndexEntry> CorpusManager::index_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_locked();
}

}  // namespace semilocal
