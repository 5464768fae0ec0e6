#include "engine/plan_cache.h"

#include <algorithm>

#include "obs/obs.h"

namespace treeq {
namespace engine {

PlanCache::PlanCache(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {}

Result<PlanPtr> PlanCache::GetOrCompile(Language language,
                                        std::string_view text,
                                        bool* was_hit) {
  if (was_hit != nullptr) *was_hit = false;
  if (std::optional<PlanPtr> hit = Lookup(language, text)) {
    if (was_hit != nullptr) *was_hit = true;
    return *std::move(hit);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  TREEQ_OBS_INC("engine.plan_cache.misses");
  // Compile outside the lock; see file comment for the duplicate-compile
  // trade-off.
  TREEQ_ASSIGN_OR_RETURN(PlanPtr plan, Plan::Compile(language, text));
  {
    std::lock_guard<std::mutex> lock(mu_);
    Key key{language, std::string(text)};
    auto it = index_.find(key);
    if (it != index_.end()) {
      // A racing thread inserted first; serve its plan.
      Touch(it);
      return it->second->plan;
    }
    // May alias onto a resident plan with the same canonical hash; serve
    // whichever plan is resident for this text afterwards.
    plan = InsertLocked(std::move(key), plan);
  }
  return plan;
}

std::optional<PlanPtr> PlanCache::Lookup(Language language,
                                         std::string_view text) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(Key{language, std::string(text)});
  if (it == index_.end()) return std::nullopt;
  Touch(it);
  hits_.fetch_add(1, std::memory_order_relaxed);
  TREEQ_OBS_INC("engine.plan_cache.hits");
  return it->second->plan;
}

void PlanCache::Insert(const PlanPtr& plan) {
  if (plan == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  Key key{plan->language(), plan->text()};
  auto it = index_.find(key);
  if (it != index_.end()) {
    Touch(it);
    return;
  }
  InsertLocked(std::move(key), plan);
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  canon_index_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void PlanCache::Touch(
    std::map<Key, std::list<Entry>::iterator>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it->second);
}

PlanPtr PlanCache::InsertLocked(Key key, const PlanPtr& plan) {
  const plan::CanonicalHash hash = plan->canonical_hash();
  const std::pair<uint64_t, uint64_t> canon_key{hash.hi, hash.lo};
  auto canon = canon_index_.find(canon_key);
  if (canon != canon_index_.end()) {
    // Same canonical plan under another text: alias instead of occupying a
    // second slot, so both texts share one entry (and one recency).
    Entry& entry = *canon->second;
    entry.aliases.push_back(key);
    index_[std::move(key)] = canon->second;
    lru_.splice(lru_.begin(), lru_, canon->second);
    canonical_hits_.fetch_add(1, std::memory_order_relaxed);
    TREEQ_OBS_INC("engine.plan_cache.canonical_hits");
    return entry.plan;
  }
  while (lru_.size() >= capacity_) {
    const Entry& victim = lru_.back();
    index_.erase(victim.key);
    for (const Key& alias : victim.aliases) index_.erase(alias);
    auto victim_canon = canon_index_.find({victim.hash.first,
                                           victim.hash.second});
    if (victim_canon != canon_index_.end() &&
        victim_canon->second == std::prev(lru_.end())) {
      canon_index_.erase(victim_canon);
    }
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    TREEQ_OBS_INC("engine.plan_cache.evictions");
  }
  lru_.push_front(Entry{key, {}, canon_key, plan});
  index_[std::move(key)] = lru_.begin();
  canon_index_[canon_key] = lru_.begin();
  return plan;
}

}  // namespace engine
}  // namespace treeq
