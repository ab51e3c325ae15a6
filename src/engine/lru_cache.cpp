#include "engine/lru_cache.hpp"

#include "core/query_formulas.hpp"

namespace semilocal {

std::size_t kernel_resident_bytes(Index order) {
  // row_to_col + col_to_row entries, plus object/bookkeeping overhead.
  return 2 * static_cast<std::size_t>(order) * sizeof(Permutation::Entry) + 128;
}

std::size_t decoded_entry_bytes(Index order) {
  return kernel_resident_bytes(order) + QueryIndex::projected_bytes(order);
}

Index CachedKernel::compressed_lcs() const {
  const HQuery q = lcs_query(blob_->m(), blob_->n());
  const Index sigma = blob_->sigma(q.i, q.j, decoded_blocks_.get());
  return h_from_sigma(blob_->m(), q.i, q.j, sigma) - q.correction;
}

CachedKernelPtr LruKernelCache::get(const PairKey& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

void LruKernelCache::put(const PairKey& key, CachedKernelPtr entry) {
  if (!entry) return;
  const std::size_t bytes = entry->resident_bytes();
  const bool compressed = entry->is_compressed();
  if (bytes > budget_) return;  // would evict everything and still not fit
  if (const auto it = index_.find(key); it != index_.end()) {
    Entry& slot = *it->second;
    bytes_ -= slot.bytes;
    if (slot.compressed) {
      compressed_bytes_ -= slot.bytes;
      --compressed_entries_;
    }
    slot.value = std::move(entry);
    slot.bytes = bytes;
    slot.compressed = compressed;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(entry), bytes, compressed});
    index_.emplace(key, lru_.begin());
  }
  bytes_ += bytes;
  if (compressed) {
    compressed_bytes_ += bytes;
    ++compressed_entries_;
  }
  evict_to_budget();
}

bool LruKernelCache::replace(const PairKey& key, const CachedKernel* current,
                             CachedKernelPtr successor) {
  const auto it = index_.find(key);
  if (it == index_.end() || it->second->value.get() != current) return false;
  put(key, std::move(successor));
  return true;
}

void LruKernelCache::evict_to_budget() {
  while (bytes_ > budget_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    if (victim.compressed) {
      compressed_bytes_ -= victim.bytes;
      --compressed_entries_;
    }
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

LruCacheStats LruKernelCache::stats() const {
  return LruCacheStats{.hits = hits_,
                       .misses = misses_,
                       .evictions = evictions_,
                       .entries = lru_.size(),
                       .bytes = bytes_,
                       .budget_bytes = budget_,
                       .compressed_entries = compressed_entries_,
                       .compressed_bytes = compressed_bytes_};
}

}  // namespace semilocal
