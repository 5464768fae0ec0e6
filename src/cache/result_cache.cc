#include "cache/result_cache.h"

#include <utility>

#include "fault/fault.h"
#include "obs/obs.h"

namespace treeq {
namespace cache {

namespace {

constexpr size_t kEntryOverheadBytes = 192;

/// Approximate payload size of a result: the variant's heap footprint.
size_t ResultBytes(const QueryResult& result) {
  size_t bytes = sizeof(QueryResult);
  if (result.is_nodes()) {
    bytes += static_cast<size_t>(result.nodes().num_words()) *
             sizeof(uint64_t);
  } else if (result.is_tuples()) {
    for (const std::vector<NodeId>& tuple : result.tuples()) {
      bytes += sizeof(std::vector<NodeId>) + tuple.size() * sizeof(NodeId);
    }
  }
  return bytes;
}

}  // namespace

size_t ResultKeyHash::operator()(const ResultKey& key) const {
  uint64_t h = Mix64(key.query_hash_lo);
  h = Mix64(h ^ key.query_hash_hi);
  h = Mix64(h ^ key.doc_epoch);
  return static_cast<size_t>(h);
}

ResultCache::ResultCache(const ResultCacheOptions& options)
    : lru_(options.max_bytes, options.max_entries, options.num_shards) {}

std::optional<QueryResult> ResultCache::Lookup(const ResultKey& key) {
  // Injected lookup failure = a forced miss: the request executes as if
  // the entry were evicted a moment earlier. Counted as a real miss.
  if (TREEQ_FAULT_FIRED("cache.result.lookup")) {
    lru_.CountMiss();
    TREEQ_OBS_INC("cache.result.misses");
    return std::nullopt;
  }
  QueryResult result;
  if (lru_.Lookup(key, &result)) {
    TREEQ_OBS_INC("cache.result.hits");
    return result;
  }
  TREEQ_OBS_INC("cache.result.misses");
  return std::nullopt;
}

void ResultCache::Insert(const ResultKey& key, const QueryResult& result) {
  // Injected insert failure = the entry is silently dropped; later lookups
  // miss and recompute. Residency is an optimization, never a contract.
  if (TREEQ_FAULT_FIRED("cache.result.insert")) return;
  const size_t entry_bytes = kEntryOverheadBytes + ResultBytes(result);
  const auto outcome = lru_.Insert(key, result, entry_bytes);
  if (outcome.evicted > 0) {
    TREEQ_OBS_COUNT("cache.result.evictions", outcome.evicted);
  }
  if (!outcome.inserted) return;
  TREEQ_OBS_INC("cache.result.inserts");
  TREEQ_OBS_HISTOGRAM("cache.result.entry_bytes",
                      static_cast<uint64_t>(entry_bytes));
}

void ResultCache::InvalidateDocument(uint64_t epoch) {
  // Injected invalidate failure = dead-epoch entries linger until evicted
  // by capacity. Safe because keys carry the epoch: a replaced document
  // gets a fresh epoch, so stale entries can never satisfy a new lookup —
  // the fault only delays memory reclamation, which the storm verifies.
  if (TREEQ_FAULT_FIRED("cache.result.invalidate")) return;
  const size_t erased = lru_.EraseIf(
      [epoch](const ResultKey& key) { return key.doc_epoch == epoch; });
  if (erased > 0) TREEQ_OBS_COUNT("cache.result.invalidated", erased);
}

std::optional<std::future<Result<QueryResult>>> InflightTable::Join(
    const ResultKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = flights_.try_emplace(key);
  if (inserted) {
    leaders_.fetch_add(1, std::memory_order_relaxed);
    TREEQ_OBS_INC("cache.singleflight.leaders");
    return std::nullopt;
  }
  it->second.waiters.emplace_back();
  followers_.fetch_add(1, std::memory_order_relaxed);
  TREEQ_OBS_INC("cache.singleflight.followers");
  return it->second.waiters.back().get_future();
}

void InflightTable::Complete(const ResultKey& key,
                             const Result<QueryResult>& outcome) {
  Flight flight;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = flights_.find(key);
    if (it == flights_.end()) return;
    flight = std::move(it->second);
    flights_.erase(it);
  }
  // Fulfill outside the lock: set_value wakes waiters, and a waiter's
  // continuation must never run under the table mutex.
  for (std::promise<Result<QueryResult>>& waiter : flight.waiters) {
    if (outcome.ok()) {
      waiter.set_value(outcome.value());
    } else {
      waiter.set_value(outcome.status());
    }
  }
}

size_t InflightTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flights_.size();
}

}  // namespace cache
}  // namespace treeq
