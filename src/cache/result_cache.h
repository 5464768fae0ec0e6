#ifndef TREEQ_CACHE_RESULT_CACHE_H_
#define TREEQ_CACHE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/sharded_lru.h"
#include "engine/query.h"
#include "query/parse.h"
#include "util/status.h"

/// \file result_cache.h
/// Whole-query result reuse across Submits, in two cooperating pieces:
///
///   - `ResultCache`: a sharded LRU (cache/sharded_lru.h) of finished
///     `QueryResult`s keyed by (document epoch, canonical plan hash). The
///     hash is the 128-bit canonical identity from plan/canonicalize.h,
///     so semantically identical queries — across languages, dialects,
///     whitespace, and variable renaming — share one entry; collision
///     odds are the 128-bit birthday bound. Errors and degraded results
///     are never inserted.
///
///   - `InflightTable` (singleflight): collapses concurrent identical
///     Submits into one execution. The first submitter of a key becomes
///     the *leader* and runs the query; everyone arriving before the
///     leader finishes becomes a *follower* and receives a copy of the
///     leader's outcome — including its error, if it fails — without ever
///     touching the worker queue.
///
/// Keying and invalidation follow the EvalCache scheme: document epochs
/// are process-unique (tree/document.h), so entries of a replaced document
/// are unreachable by key; InvalidateDocument reclaims them eagerly.
///
/// Thread-safety: all methods of both classes are safe to call
/// concurrently. Lifetime tallies are plain atomics, independent of
/// TREEQ_OBS_DISABLED builds.

namespace treeq {
namespace cache {

/// Identity of one cacheable execution: the document epoch plus the
/// plan's canonical 128-bit hash (engine::Plan::canonical_hash()). Two
/// texts share a key exactly when they compile to the same canonical
/// logical plan, which is the sharing the cache wants.
struct ResultKey {
  uint64_t doc_epoch = 0;
  uint64_t query_hash_hi = 0;
  uint64_t query_hash_lo = 0;

  bool operator==(const ResultKey&) const = default;
};

struct ResultKeyHash {
  size_t operator()(const ResultKey& key) const;
};

struct ResultCacheOptions {
  /// Max resident results across all shards.
  size_t max_entries = 4096;
  /// Approximate byte budget across all shards (value payload + overhead).
  size_t max_bytes = size_t{64} << 20;
  /// Shard count (rounded up to at least 1).
  int num_shards = 8;
};

class ResultCache {
 public:
  explicit ResultCache(
      const ResultCacheOptions& options = ResultCacheOptions());

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// A copy of the cached result for `key`, refreshing recency; nullopt on
  /// a miss.
  std::optional<QueryResult> Lookup(const ResultKey& key);

  /// Caches a copy of `result` under `key`. Callers must not insert
  /// degraded results (the executor enforces this); racing inserts of the
  /// same key keep the resident copy.
  void Insert(const ResultKey& key, const QueryResult& result);

  /// Drops every entry of document `epoch`.
  void InvalidateDocument(uint64_t epoch);

  void Clear() { lru_.Clear(); }

  size_t size() const { return lru_.size(); }
  size_t bytes_used() const { return lru_.bytes_used(); }

  /// Lifetime tallies, independent of TREEQ_OBS_DISABLED.
  uint64_t hits() const { return lru_.hits(); }
  uint64_t misses() const { return lru_.misses(); }
  uint64_t inserts() const { return lru_.inserts(); }
  uint64_t evictions() const { return lru_.evictions(); }

 private:
  ShardedLru<ResultKey, QueryResult, ResultKeyHash> lru_;
};

/// The in-flight dedup table. Usage protocol (the executor's):
///
///   auto follower = table.Join(key);
///   if (follower) { return *std::move(follower); }   // wait for leader
///   ... enqueue + run the query as leader ...
///   table.Complete(key, outcome);                    // fan out, ALWAYS
///
/// A leader MUST eventually call Complete exactly once — including when
/// its enqueue is rejected — or followers wait forever.
class InflightTable {
 public:
  InflightTable() = default;
  InflightTable(const InflightTable&) = delete;
  InflightTable& operator=(const InflightTable&) = delete;

  /// Joins the flight for `key`. Returns nullopt when the caller is the
  /// first submitter (the leader; the flight is now registered), or a
  /// future of the leader's outcome for followers.
  std::optional<std::future<Result<QueryResult>>> Join(const ResultKey& key);

  /// Ends the flight for `key`: removes it from the table and fulfills
  /// every follower with a copy of `outcome`. No-op for an unknown key.
  void Complete(const ResultKey& key, const Result<QueryResult>& outcome);

  /// In-flight keys right now (for tests).
  size_t size() const;

  /// Lifetime tallies, independent of TREEQ_OBS_DISABLED.
  uint64_t leaders() const {
    return leaders_.load(std::memory_order_relaxed);
  }
  uint64_t followers() const {
    return followers_.load(std::memory_order_relaxed);
  }

 private:
  struct Flight {
    std::vector<std::promise<Result<QueryResult>>> waiters;
  };

  mutable std::mutex mu_;
  std::unordered_map<ResultKey, Flight, ResultKeyHash> flights_;
  std::atomic<uint64_t> leaders_{0};
  std::atomic<uint64_t> followers_{0};
};

}  // namespace cache
}  // namespace treeq

#endif  // TREEQ_CACHE_RESULT_CACHE_H_
