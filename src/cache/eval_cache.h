#ifndef TREEQ_CACHE_EVAL_CACHE_H_
#define TREEQ_CACHE_EVAL_CACHE_H_

#include <cstddef>
#include <cstdint>

#include "cache/sharded_lru.h"
#include "tree/axes.h"
#include "tree/node_set.h"

/// \file eval_cache.h
/// Cross-query memoization of evaluation intermediates: a sharded,
/// memory-bounded LRU (cache/sharded_lru.h) of `AxisImage` results keyed by
/// (document epoch, axis, input-set fingerprint). One axis-image step is
/// the unit every evaluator in the repo decomposes into — the set-at-a-time
/// XPath evaluator's StepImage (forward and inverse), and the Yannakakis
/// semijoin sweeps of the cq.yannakakis route — so memoizing it captures
/// whole XPath step images and the CQ twig reductions with a single
/// mechanism.
///
/// Keying and invalidation: every Document carries a process-unique epoch
/// (tree/document.h, NextDocumentEpoch). Cache keys embed it, so a replaced
/// or re-registered document can never be served another tree's images —
/// stale entries are unreachable by construction and age out of the LRU.
/// DocumentStore eviction listeners additionally call InvalidateDocument()
/// to reclaim their bytes eagerly.
///
/// Collision safety: the input set is identified by a 128-bit two-lane
/// fingerprint of its backing words (two independent mixes over the same
/// stream). A false hit requires a 128-bit collision between two live sets
/// of the same document, axis, universe, and popcount — vanishingly
/// unlikely; the differential tests (tests/cache_differential_test.cc)
/// cross-check cached against uncached results bit for bit.
///
/// Thread-safety: all methods are safe to call concurrently; the read path
/// takes exactly one shard mutex. Lifetime tallies (hits/misses/...) are
/// plain atomics, independent of the obs registry, so tests work under
/// TREEQ_OBS_DISABLED builds too.

namespace treeq {
namespace cache {

struct EvalCacheOptions {
  /// Total byte budget across all shards (approximate: counts the stored
  /// result words plus a fixed per-entry overhead).
  size_t max_bytes = size_t{64} << 20;
  /// Shard count (rounded up to at least 1). More shards = less mutex
  /// contention between workers hitting different keys.
  int num_shards = 8;
  /// Results larger than this are computed but never cached, so one huge
  /// image cannot wipe the working set.
  size_t max_entry_bytes = size_t{8} << 20;
};

class EvalCache {
 public:
  explicit EvalCache(const EvalCacheOptions& options = EvalCacheOptions());

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Serves `*to` from the cache when it holds the image of `from` under
  /// `axis` for document `epoch`. On a hit, `*to` is fully overwritten with
  /// a copy of the stored set and recency is refreshed.
  bool Lookup(uint64_t epoch, Axis axis, const NodeSet& from, NodeSet* to);

  /// Stores the image `to` of `from` under `axis` for document `epoch`,
  /// evicting LRU entries of the shard until the byte budget holds.
  /// Oversized results (> max_entry_bytes) are silently skipped.
  void Insert(uint64_t epoch, Axis axis, const NodeSet& from,
              const NodeSet& to);

  /// Drops every entry of document `epoch` (all shards). Entries keyed by
  /// a dead epoch are unreachable anyway; this reclaims their bytes now.
  void InvalidateDocument(uint64_t epoch);

  void Clear() { lru_.Clear(); }

  size_t size() const { return lru_.size(); }
  size_t bytes_used() const { return lru_.bytes_used(); }
  const EvalCacheOptions& options() const { return options_; }

  /// Lifetime tallies, independent of TREEQ_OBS_DISABLED.
  uint64_t hits() const { return lru_.hits(); }
  uint64_t misses() const { return lru_.misses(); }
  uint64_t inserts() const { return lru_.inserts(); }
  uint64_t evictions() const { return lru_.evictions(); }

  /// The AxisImageMemo adapter evaluators consume (tree/axes.h): one cache
  /// bound to one document epoch. Stateless beyond the binding — cheap to
  /// construct per request, safe to share across the request's threads.
  class Memo : public AxisImageMemo {
   public:
    Memo(EvalCache* cache, uint64_t epoch) : cache_(cache), epoch_(epoch) {}
    bool Lookup(Axis axis, const NodeSet& from, NodeSet* to) override {
      return cache_->Lookup(epoch_, axis, from, to);
    }
    void Store(Axis axis, const NodeSet& from, const NodeSet& to) override {
      cache_->Insert(epoch_, axis, from, to);
    }

   private:
    EvalCache* cache_;
    uint64_t epoch_;
  };

 private:
  struct Key {
    uint64_t epoch = 0;
    uint64_t fp_lo = 0;
    uint64_t fp_hi = 0;
    int32_t axis = 0;
    int32_t universe = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  static Key MakeKey(uint64_t epoch, Axis axis, const NodeSet& from);

  const EvalCacheOptions options_;
  ShardedLru<Key, NodeSet, KeyHash> lru_;
};

}  // namespace cache
}  // namespace treeq

#endif  // TREEQ_CACHE_EVAL_CACHE_H_
