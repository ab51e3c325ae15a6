// Byte-budgeted LRU cache of semi-local kernels, keyed by content hash.
//
// The cached value is a shared_ptr<const CachedKernel>: the kernel plus its
// lazily-attached QueryIndex. Eviction drops the cache's reference while
// in-flight queries keep theirs, so neither the kernel nor its index is ever
// freed under a reader. Capacity is a byte budget, not an entry count --
// kernels scale with m + n, and a serving cache mixing 1 kb and 1 Mb kernels
// needs to account for that. A decoded entry is charged for its index *up
// front* (projected from the kernel order) whether or not the index is built
// yet, so its charge never changes underneath the LRU; a compressed entry is
// charged its encoded bytes until the store replaces it with its decoded
// successor (put on the same key). Counters (hits / misses / evictions)
// feed the engine stats endpoint.
//
// Not internally synchronized: the owner (KernelStore) serializes access.
#pragma once

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/kernel.hpp"
#include "core/kernel_codec.hpp"
#include "core/query_index.hpp"
#include "engine/key.hpp"

namespace semilocal {

/// Shared ownership handle for a bare kernel.
using KernelPtr = std::shared_ptr<const SemiLocalKernel>;

/// Approximate resident bytes of a bare kernel of this order: the two
/// permutation maps plus a fixed object overhead (index not included; see
/// CachedKernel).
std::size_t kernel_resident_bytes(Index order);

/// Cache charge of a *decoded* entry of this order: kernel plus its
/// (projected) query index. What a compressed entry costs once a window
/// query promotes it.
std::size_t decoded_entry_bytes(Index order);

class CachedKernel;
/// Shared ownership handle the engine hands out for cached entries.
using CachedKernelPtr = std::shared_ptr<const CachedKernel>;

/// A cached kernel in one of two residency tiers.
///
/// Decoded tier: the kernel, its global score (read off the kernel once, at
/// construction, in O(m+n) -- so a kLcs never needs an index), and its
/// shared immutable query index, built exactly once -- on the entry's first
/// window query, via std::call_once -- and then read lock-free:
/// index_if_built() is a single acquire load, and index() after completion
/// is std::call_once's fast path.
///
/// Compressed tier (disk hits under format v3): the entry holds only the
/// validated CompressedKernel and its PairKey, and is charged its compressed
/// bytes, so the LRU budget measures real memory and holds several times
/// more pairs. Its score is one sigma over the blocks, computed on the first
/// lcs() and cached. Anything that needs the whole kernel -- kernel(),
/// index(), a window query -- goes through decoded(): the entry's decoded
/// successor, built once. The store swaps that successor into the entry's
/// cache slot (KernelStore::promote), after which it is charged in full.
///
/// Immutable from the readers' point of view, so one entry may serve any
/// number of connection threads concurrently.
class CachedKernel {
 public:
  explicit CachedKernel(KernelPtr kernel)
      : kernel_(std::move(kernel)), lcs_(kernel_->lcs()) {}
  /// Compressed-resident entry of `key`. `decoded_blocks` (optional, shared
  /// so it survives the store) is bumped per block the score or the decode
  /// reads.
  CachedKernel(const PairKey& key, CompressedKernelPtr blob,
               std::shared_ptr<std::atomic<std::uint64_t>> decoded_blocks = nullptr)
      : blob_(std::move(blob)), key_(key), decoded_blocks_(std::move(decoded_blocks)) {}
  CachedKernel(const CachedKernel&) = delete;
  CachedKernel& operator=(const CachedKernel&) = delete;

  [[nodiscard]] bool is_compressed() const { return blob_ != nullptr; }
  /// The pair a compressed entry was loaded for (empty for decoded entries).
  [[nodiscard]] const PairKey& key() const { return key_; }

  /// Dimensions without forcing a decode.
  [[nodiscard]] Index m() const { return blob_ ? blob_->m() : kernel_->m(); }
  [[nodiscard]] Index n() const { return blob_ ? blob_->n() : kernel_->n(); }
  [[nodiscard]] Index order() const { return m() + n(); }

  /// LCS(a, b). Cached at construction for a decoded entry; a compressed
  /// entry streams its blocks once, on the first call (thread-safe).
  [[nodiscard]] Index lcs() const {
    if (blob_) std::call_once(lcs_once_, [this] { lcs_ = compressed_lcs(); });
    return lcs_;
  }

  /// The decoded successor of a compressed entry: all blocks decoded into a
  /// decoded-tier entry exactly once (thread-safe; concurrent callers block
  /// until the one decode finishes). nullptr for a decoded entry.
  const CachedKernelPtr& decoded() const {
    if (blob_) {
      std::call_once(decode_once_, [this] {
        decoded_ = std::make_shared<const CachedKernel>(std::make_shared<const SemiLocalKernel>(
            blob_->decode(decoded_blocks_.get())));
        decoded_ready_.store(decoded_.get(), std::memory_order_release);
      });
    }
    return decoded_;
  }

  /// The decoded kernel (a compressed entry's successor's).
  [[nodiscard]] const SemiLocalKernel& kernel() const { return *kernel_ptr(); }
  [[nodiscard]] const KernelPtr& kernel_ptr() const {
    return blob_ ? decoded()->kernel_ptr() : kernel_;
  }

  /// The query index, building it if this is the first call (thread-safe;
  /// concurrent callers block until the one build finishes). `builds`
  /// (optional) is incremented iff this call performed the build. A
  /// compressed entry's index is its successor's.
  const QueryIndex& index(std::atomic<std::uint64_t>* builds = nullptr) const {
    if (blob_) return decoded()->index(builds);
    std::call_once(index_once_, [this, builds] {
      index_ = std::make_unique<const QueryIndex>(*kernel_);
      // Count before publishing: whoever sees the index also sees the count.
      if (builds) builds->fetch_add(1, std::memory_order_relaxed);
      index_ready_.store(index_.get(), std::memory_order_release);
    });
    return *index_;
  }

  /// Lock-free peek: the index if already built, nullptr otherwise.
  [[nodiscard]] const QueryIndex* index_if_built() const {
    if (blob_) {
      const CachedKernel* successor = decoded_ready_.load(std::memory_order_acquire);
      return successor ? successor->index_if_built() : nullptr;
    }
    return index_ready_.load(std::memory_order_acquire);
  }

  /// Bytes this entry pins in the cache: compressed bytes for the
  /// compressed tier, kernel + (projected) index for the decoded tier.
  [[nodiscard]] std::size_t resident_bytes() const {
    if (blob_) return blob_->encoded_bytes() + 128;
    return decoded_entry_bytes(kernel_->order());
  }

 private:
  [[nodiscard]] Index compressed_lcs() const;

  KernelPtr kernel_;
  CompressedKernelPtr blob_;
  PairKey key_;
  std::shared_ptr<std::atomic<std::uint64_t>> decoded_blocks_;
  mutable std::once_flag lcs_once_;
  mutable Index lcs_ = -1;  // after kernel_: initialised from it
  mutable std::once_flag decode_once_;
  mutable CachedKernelPtr decoded_;
  mutable std::atomic<const CachedKernel*> decoded_ready_{nullptr};
  mutable std::once_flag index_once_;
  mutable std::unique_ptr<const QueryIndex> index_;
  mutable std::atomic<const QueryIndex*> index_ready_{nullptr};
};

/// Counters exposed through EngineStats.
struct LruCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t budget_bytes = 0;
  std::size_t compressed_entries = 0;  ///< entries still in the compressed tier
  std::size_t compressed_bytes = 0;    ///< their share of `bytes`
};

class LruKernelCache {
 public:
  /// A zero budget disables caching (every get misses, puts are dropped).
  explicit LruKernelCache(std::size_t budget_bytes) : budget_(budget_bytes) {}

  /// Returns the cached entry and marks it most-recently-used, or nullptr.
  CachedKernelPtr get(const PairKey& key);

  /// Inserts (or refreshes) an entry, then evicts least-recently-used
  /// entries until the budget holds. An entry larger than the whole budget
  /// is not cached at all.
  void put(const PairKey& key, CachedKernelPtr entry);

  /// put(key, successor) iff the slot of `key` still holds `current`: the
  /// one swap that promotes a compressed entry. Returns whether it swapped.
  bool replace(const PairKey& key, const CachedKernel* current, CachedKernelPtr successor);

  [[nodiscard]] LruCacheStats stats() const;

 private:
  struct Entry {
    PairKey key;
    CachedKernelPtr value;
    std::size_t bytes = 0;
    bool compressed = false;
  };

  void evict_to_budget();

  std::size_t budget_;
  std::size_t bytes_ = 0;
  std::size_t compressed_bytes_ = 0;
  std::size_t compressed_entries_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<PairKey, std::list<Entry>::iterator, PairKeyHash> index_;
};

}  // namespace semilocal
