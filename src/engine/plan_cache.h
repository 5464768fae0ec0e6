#ifndef TREEQ_ENGINE_PLAN_CACHE_H_
#define TREEQ_ENGINE_PLAN_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/plan.h"
#include "query/parse.h"
#include "util/status.h"

/// \file plan_cache.h
/// An LRU cache of compiled plans keyed by (language, query text) — the
/// run-many half of the server's parse-once/run-many contract. A repeated
/// query costs one mutex-guarded map lookup instead of a parse + validate
/// + classify pass; the bench (bench_engine_throughput) measures the gap.
///
/// Thread-safety: all methods are safe to call concurrently. On a miss,
/// GetOrCompile compiles OUTSIDE the cache lock, so a slow compile never
/// stalls hits on other keys; two threads racing on the same cold key may
/// both compile, and the first insert wins (plans are immutable, so either
/// copy is equally good).
///
/// Canonical aliasing: alongside the text index the cache keeps a second
/// index on the plan's canonical 128-bit hash (plan/canonicalize.h). When
/// a compile lands on a hash that is already resident — the same query in
/// another spelling, whitespace, or variable naming, possibly another
/// language — the new text becomes an *alias* of the resident entry: one
/// list node, one PlanPtr, every alias text a map key pointing at it.
/// Counted by canonical_hits(); future submits of either text are plain
/// hits. Aliased texts therefore share one PlanCache entry, and (because
/// ResultKey is the canonical hash too) one cached result and one
/// singleflight.
///
/// Obs counters: engine.plan_cache.hits / .misses / .evictions /
/// .canonical_hits, plus engine.plan.compiles incremented by
/// Plan::Compile itself — a cache hit leaves engine.plan.compiles
/// untouched, which is how the bench proves hits skip compilation.

namespace treeq {
namespace engine {

class PlanCache {
 public:
  /// `capacity` = max resident plans; at least 1.
  explicit PlanCache(size_t capacity);

  /// Returns the cached plan for (language, text), compiling and
  /// inserting it on a miss. Compile failures are returned and not cached
  /// (a mistyped query should not poison the cache). `was_hit`, if
  /// non-null, reports whether this call was served from the cache —
  /// callers forward it to SubmitOptions::plan_cache_hit so per-query
  /// profiles attribute compile time to cold requests only.
  Result<PlanPtr> GetOrCompile(Language language, std::string_view text,
                               bool* was_hit = nullptr);

  /// Lookup without compiling; refreshes recency on a hit.
  std::optional<PlanPtr> Lookup(Language language, std::string_view text);

  /// Inserts an externally compiled plan (evicting LRU entries as needed).
  void Insert(const PlanPtr& plan);

  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Lifetime tallies, independent of the obs registry (and of
  /// TREEQ_OBS_DISABLED builds).
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Compiles whose canonical hash matched a resident plan of a different
  /// text: the new text was aliased onto the resident entry instead of
  /// occupying a slot of its own.
  uint64_t canonical_hits() const {
    return canonical_hits_.load(std::memory_order_relaxed);
  }

 private:
  /// The plan's full identity. Ordered (for the std::map index) by
  /// language first, text last.
  struct Key {
    Language language = Language::kXPath;
    std::string text;

    bool operator<(const Key& other) const {
      if (language != other.language) return language < other.language;
      return text < other.text;
    }
  };
  struct Entry {
    Key key;                   // the text that first compiled the plan
    std::vector<Key> aliases;  // other texts sharing this canonical plan
    std::pair<uint64_t, uint64_t> hash;  // the plan's canonical hash
    PlanPtr plan;
  };

  /// Moves `it`'s entry to the front of the recency list. Caller holds mu_.
  void Touch(std::map<Key, std::list<Entry>::iterator>::iterator it);
  /// Inserts under mu_ unless the key is already present; aliases onto a
  /// resident entry when the canonical hash matches. Returns the plan that
  /// is resident for `key` afterwards (the alias target on a canonical
  /// hit, else `plan`).
  PlanPtr InsertLocked(Key key, const PlanPtr& plan);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::map<Key, std::list<Entry>::iterator> index_;
  /// (hash.hi, hash.lo) -> resident entry with that canonical hash.
  std::map<std::pair<uint64_t, uint64_t>, std::list<Entry>::iterator>
      canon_index_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> canonical_hits_{0};
};

}  // namespace engine
}  // namespace treeq

#endif  // TREEQ_ENGINE_PLAN_CACHE_H_
