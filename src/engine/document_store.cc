#include "engine/document_store.h"

#include <utility>

#include "fault/fault.h"
#include "obs/obs.h"

namespace treeq {
namespace engine {

Result<DocumentPtr> DocumentStore::Add(std::string_view name, Tree tree) {
  DocumentPtr doc = MakeDocument(std::move(tree), std::string(name));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = docs_.emplace(std::string(name), doc);
  if (!inserted) {
    return Status::InvalidArgument("document name already registered: " +
                                   std::string(name));
  }
  TREEQ_OBS_INC("engine.store.documents_added");
  return doc;
}

Result<DocumentPtr> DocumentStore::Replace(std::string_view name,
                                           Tree tree) {
  DocumentPtr doc = MakeDocument(std::move(tree), std::string(name));
  uint64_t old_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = docs_.find(name);
    if (it == docs_.end()) {
      return Status::NotFound("no document named: " + std::string(name));
    }
    old_epoch = it->second->epoch();
    it->second = doc;
  }
  TREEQ_OBS_INC("engine.store.documents_replaced");
  NotifyEviction(old_epoch);
  return doc;
}

Result<DocumentPtr> DocumentStore::Get(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(name);
  if (it == docs_.end()) {
    return Status::NotFound("no document named: " + std::string(name));
  }
  return it->second;
}

Status DocumentStore::Remove(std::string_view name) {
  uint64_t old_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = docs_.find(name);
    if (it == docs_.end()) {
      return Status::NotFound("no document named: " + std::string(name));
    }
    old_epoch = it->second->epoch();
    docs_.erase(it);
  }
  NotifyEviction(old_epoch);
  return Status::OK();
}

void DocumentStore::AddEvictionListener(EvictionListener fn) {
  if (fn == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  listeners_.push_back(std::move(fn));
}

void DocumentStore::NotifyEviction(uint64_t epoch) {
  // Injected notify failure = the eviction fan-out is lost, so epoch-keyed
  // cache entries for the dead document are never proactively invalidated.
  // Correctness survives because cache keys carry the epoch (stale entries
  // cannot satisfy new lookups); the storm asserts exactly that.
  if (TREEQ_FAULT_FIRED("store.evict.notify")) return;
  std::vector<EvictionListener> listeners;
  {
    std::lock_guard<std::mutex> lock(mu_);
    listeners = listeners_;
  }
  for (const EvictionListener& fn : listeners) fn(epoch);
}

std::vector<std::string> DocumentStore::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(docs_.size());
  for (const auto& [name, doc] : docs_) names.push_back(name);
  return names;
}

size_t DocumentStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return docs_.size();
}

}  // namespace engine
}  // namespace treeq
