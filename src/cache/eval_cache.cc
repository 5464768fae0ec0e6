#include "cache/eval_cache.h"

#include <cstdint>

#include "fault/fault.h"
#include "obs/obs.h"

namespace treeq {
namespace cache {

namespace {

/// Fixed per-entry overhead charged against the byte budget: key, list and
/// map node bookkeeping. Approximate on purpose — the budget bounds memory
/// order-of-magnitude, it is not an allocator audit.
constexpr size_t kEntryOverheadBytes = 128;

size_t EntryBytes(const NodeSet& result) {
  return kEntryOverheadBytes +
         static_cast<size_t>(result.num_words()) * sizeof(uint64_t);
}

}  // namespace

size_t EvalCache::KeyHash::operator()(const Key& k) const {
  uint64_t h = Mix64(k.fp_lo ^ Mix64(k.fp_hi));
  h = Mix64(h ^ k.epoch);
  h = Mix64(h ^ (static_cast<uint64_t>(static_cast<uint32_t>(k.axis)) << 32 |
                 static_cast<uint32_t>(k.universe)));
  return static_cast<size_t>(h);
}

EvalCache::EvalCache(const EvalCacheOptions& options)
    : options_(options),
      lru_(options.max_bytes, /*max_entries=*/SIZE_MAX, options.num_shards) {}

EvalCache::Key EvalCache::MakeKey(uint64_t epoch, Axis axis,
                                  const NodeSet& from) {
  // Two independent lanes over the same word stream: FNV-1a-style in lane
  // one, position-salted splitmix in lane two. 128 bits total — see the
  // file comment on collision safety.
  uint64_t lo = 14695981039346656037ull;
  uint64_t hi = 0x2545f4914f6cdd1dull;
  uint64_t pos = 0;
  for (uint64_t w : from.words()) {
    lo = (lo ^ w) * 1099511628211ull;
    hi ^= Mix64(w + (++pos) * 0x9e3779b97f4a7c15ull);
  }
  Key key;
  key.epoch = epoch;
  key.fp_lo = lo;
  key.fp_hi = hi;
  key.axis = static_cast<int32_t>(axis);
  key.universe = from.universe();
  return key;
}

bool EvalCache::Lookup(uint64_t epoch, Axis axis, const NodeSet& from,
                       NodeSet* to) {
  // Injected lookup failure = a forced miss: the memo recomputes, results
  // stay bit-identical, only the hit rate moves. Counted as a real miss.
  if (TREEQ_FAULT_FIRED("cache.eval.lookup")) {
    lru_.CountMiss();
    TREEQ_OBS_INC("cache.eval.misses");
    return false;
  }
  if (lru_.Lookup(MakeKey(epoch, axis, from), to)) {
    TREEQ_OBS_INC("cache.eval.hits");
    return true;
  }
  TREEQ_OBS_INC("cache.eval.misses");
  return false;
}

void EvalCache::Insert(uint64_t epoch, Axis axis, const NodeSet& from,
                       const NodeSet& to) {
  // Injected insert failure = the entry is silently dropped, as if it lost
  // an eviction race immediately. Correctness never depends on residency.
  if (TREEQ_FAULT_FIRED("cache.eval.insert")) return;
  const size_t entry_bytes = EntryBytes(to);
  if (entry_bytes > options_.max_entry_bytes) return;
  // A racing insert of the same step keeps the resident copy (results are
  // bit-identical by the memo contract).
  const auto outcome =
      lru_.Insert(MakeKey(epoch, axis, from), to, entry_bytes);
  if (outcome.evicted > 0) {
    TREEQ_OBS_COUNT("cache.eval.evictions", outcome.evicted);
  }
  if (!outcome.inserted) return;
  TREEQ_OBS_INC("cache.eval.inserts");
  TREEQ_OBS_HISTOGRAM("cache.eval.entry_words",
                      static_cast<uint64_t>(to.num_words()));
}

void EvalCache::InvalidateDocument(uint64_t epoch) {
  const size_t erased =
      lru_.EraseIf([epoch](const Key& key) { return key.epoch == epoch; });
  if (erased > 0) TREEQ_OBS_COUNT("cache.eval.invalidated", erased);
}

}  // namespace cache
}  // namespace treeq
