#ifndef TREEQ_ENGINE_DOCUMENT_STORE_H_
#define TREEQ_ENGINE_DOCUMENT_STORE_H_

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "tree/document.h"
#include "tree/tree.h"
#include "util/status.h"

/// \file document_store.h
/// The server-side corpus: named, immutable Documents shared read-only by
/// every worker. Add() computes TreeOrders eagerly so no serving thread
/// ever pays (or races on) first-touch order computation; Get() hands out
/// DocumentPtr handles that stay valid after Remove() (removal drops the
/// store's reference, in-flight requests keep theirs).
///
/// Versioned invalidation: every Document carries a process-unique epoch
/// (tree/document.h). Replace() swaps in a NEW Document — new epoch — so
/// cache entries keyed by the old epoch (cache/eval_cache.h,
/// cache/result_cache.h) become unreachable the instant the swap lands;
/// no reader-side coordination is needed. Eviction listeners fire with the
/// dropped document's epoch on every Remove/Replace so caches can also
/// reclaim those bytes eagerly.

namespace treeq {
namespace engine {

class DocumentStore {
 public:
  /// Called with the epoch of every document handle the store drops
  /// (Remove or Replace), outside the store mutex. Typically wired to
  /// cache::EvalCache::InvalidateDocument and
  /// cache::ResultCache::InvalidateDocument.
  using EvictionListener = std::function<void(uint64_t epoch)>;

  /// Registers `tree` under `name` as a new Document. InvalidArgument
  /// if the name is taken (use Replace to swap a live document).
  Result<DocumentPtr> Add(std::string_view name, Tree tree);

  /// Atomically swaps the document registered under `name` for a new
  /// Document built from `tree` (fresh epoch).
  /// NotFound if absent — replacing nothing is a caller bug worth
  /// surfacing. Existing handles to the old document stay valid; eviction
  /// listeners fire with the old epoch after the swap.
  Result<DocumentPtr> Replace(std::string_view name, Tree tree);

  /// The document registered under `name`, or NotFound.
  Result<DocumentPtr> Get(std::string_view name) const;

  /// Unregisters `name`. NotFound if absent. Existing handles stay valid;
  /// eviction listeners fire with the dropped epoch.
  Status Remove(std::string_view name);

  /// Registers `fn` to observe dropped-document epochs. Listeners are
  /// called after the store mutex is released, in registration order, and
  /// must not call back into the store's mutating methods from the
  /// callback if they want to avoid re-entrancy surprises (Get is fine).
  void AddEvictionListener(EvictionListener fn);

  /// Registered names in lexicographic order.
  std::vector<std::string> Names() const;

  size_t size() const;

 private:
  /// Snapshots the listener list under mu_ and invokes each with `epoch`
  /// after unlocking.
  void NotifyEviction(uint64_t epoch);

  mutable std::mutex mu_;
  std::map<std::string, DocumentPtr, std::less<>> docs_;
  std::vector<EvictionListener> listeners_;
};

}  // namespace engine
}  // namespace treeq

#endif  // TREEQ_ENGINE_DOCUMENT_STORE_H_
