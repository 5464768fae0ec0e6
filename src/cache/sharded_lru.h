#ifndef TREEQ_CACHE_SHARDED_LRU_H_
#define TREEQ_CACHE_SHARDED_LRU_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

/// \file sharded_lru.h
/// The sharded, byte- and entry-bounded LRU map both cross-query caches
/// are built on (cache/result_cache.h, cache/eval_cache.h). A key lives in
/// shard Hash(key) % num_shards; each shard has its own mutex, recency
/// list (front = most recently used) and index, and evicts from the back
/// until its share of both bounds holds. Invalidation is by key predicate:
/// the caches erase every key of one document epoch.
///
/// The map does no observability and no fault injection. It returns
/// outcomes (hit or miss, inserted, entries evicted or erased) and each
/// cache bumps its own TREEQ_OBS_* counters from them, with literal names
/// the metric-name lint (tools/check_metric_names.py) can see.
///
/// Thread-safety: all methods are safe to call concurrently; each holds at
/// most one shard mutex at a time. The tallies are plain atomics,
/// independent of TREEQ_OBS_DISABLED builds.

namespace treeq {
namespace cache {

/// splitmix64's finalizer — the cheap 64-bit mix both caches hash with.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <typename Key, typename Value, typename Hash>
class ShardedLru {
 public:
  struct InsertOutcome {
    /// False when the entry exceeds its shard's byte budget or the key was
    /// already resident (that copy is kept and only its recency refreshed).
    bool inserted = false;
    /// Entries evicted from the back of the shard to make room.
    size_t evicted = 0;
  };

  /// `num_shards` is clamped to at least 1; each shard holds at most its
  /// share of `max_bytes` and of `max_entries` (each share at least 1).
  ShardedLru(size_t max_bytes, size_t max_entries, int num_shards)
      : shards_(static_cast<size_t>(std::max(1, num_shards))),
        shard_budget_(std::max<size_t>(1, max_bytes / shards_.size())),
        shard_entries_(std::max<size_t>(1, max_entries / shards_.size())) {}

  /// On a hit, copies the value into `*out`, refreshes recency and returns
  /// true. Either way the lookup is tallied.
  bool Lookup(const Key& key, Value* out) {
    Shard& shard = ShardFor(key);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        *out = it->second->value;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    CountMiss();
    return false;
  }

  /// Tallies a miss decided without looking (an injected lookup fault).
  void CountMiss() { misses_.fetch_add(1, std::memory_order_relaxed); }

  /// Caches a copy of `value` charged `bytes` against the budget, then
  /// evicts least-recently-used entries of its shard until both bounds
  /// hold (never the new entry: it alone fits both).
  InsertOutcome Insert(const Key& key, const Value& value, size_t bytes) {
    InsertOutcome outcome;
    if (bytes > shard_budget_) return outcome;
    Shard& shard = ShardFor(key);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return outcome;
      }
      shard.lru.push_front(Entry{key, value, bytes});
      shard.index.emplace(key, shard.lru.begin());
      shard.bytes += bytes;
      bytes_.fetch_add(bytes, std::memory_order_relaxed);
      while (shard.bytes > shard_budget_ ||
             shard.lru.size() > shard_entries_) {
        EraseLocked(&shard, std::prev(shard.lru.end()));
        ++outcome.evicted;
      }
    }
    outcome.inserted = true;
    inserts_.fetch_add(1, std::memory_order_relaxed);
    evictions_.fetch_add(outcome.evicted, std::memory_order_relaxed);
    return outcome;
  }

  /// Erases every entry whose key satisfies `pred`, shard by shard, and
  /// returns how many were erased.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    size_t erased = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto it = shard.lru.begin(); it != shard.lru.end();) {
        if (pred(it->key)) {
          it = EraseLocked(&shard, it);
          ++erased;
        } else {
          ++it;
        }
      }
    }
    return erased;
  }

  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      bytes_.fetch_sub(shard.bytes, std::memory_order_relaxed);
      shard.bytes = 0;
      shard.lru.clear();
      shard.index.clear();
    }
  }

  size_t size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.lru.size();
    }
    return total;
  }

  size_t bytes_used() const { return bytes_.load(std::memory_order_relaxed); }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t inserts() const {
    return inserts_.load(std::memory_order_relaxed);
  }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    Key key;
    Value value;
    size_t bytes = 0;
  };
  using List = std::list<Entry>;
  struct Shard {
    mutable std::mutex mu;
    List lru;  // front = most recently used
    std::unordered_map<Key, typename List::iterator, Hash> index;
    size_t bytes = 0;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[Hash{}(key) % shards_.size()];
  }

  /// Unlinks `it` and returns its successor. Caller holds shard->mu.
  typename List::iterator EraseLocked(Shard* shard,
                                      typename List::iterator it) {
    shard->bytes -= it->bytes;
    bytes_.fetch_sub(it->bytes, std::memory_order_relaxed);
    shard->index.erase(it->key);
    return shard->lru.erase(it);
  }

  std::vector<Shard> shards_;
  const size_t shard_budget_;
  const size_t shard_entries_;
  std::atomic<size_t> bytes_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace cache
}  // namespace treeq

#endif  // TREEQ_CACHE_SHARDED_LRU_H_
