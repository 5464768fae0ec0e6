#ifndef TREEQ_TREE_DOCUMENT_H_
#define TREEQ_TREE_DOCUMENT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

#include "tree/label_index.h"
#include "tree/orders.h"
#include "tree/tree.h"

/// \file document.h
/// A `Document` bundles a Tree with its TreeOrders (subtree sizes and
/// depths; node ids are pre ranks) and its per-label inverted index
/// (tree/label_index.h) in one immutable value: the structure every query
/// algorithm reads. It is the only way into the evaluators — each xpath,
/// cq, datalog and fo entry point takes
/// `(query, const Document&, ..., const ExecContext&)` — so label atoms
/// always read the cached index and never rescan the arena. Orders are
/// computed in the constructor (two linear loops over the parent array);
/// the index is built lazily on first access (thread-safe, exactly once).
///
/// A Document is immutable after construction and safe to share read-only
/// across threads; the engine's DocumentStore (engine/document_store.h)
/// hands out `DocumentPtr` (shared_ptr<const Document>) handles on that
/// basis.

namespace treeq {

/// Process-wide monotonic document epoch (starts at 1). Every Document gets
/// a fresh epoch at construction, so replacing a document — the store drops
/// the old handle and registers a new Document for the same name — changes
/// the epoch observed by cache keys. A stale cache entry keyed by the old
/// epoch is simply unreachable; no cross-thread invalidation handshake is
/// needed on the read path.
inline uint64_t NextDocumentEpoch() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

class Document {
 public:
  /// Takes ownership of `tree` and computes its orders. `name` is a display
  /// label for logs and per-query profiles — the DocumentStore passes its
  /// registration key; anonymous documents keep the empty default.
  explicit Document(Tree tree, std::string name = "")
      : tree_(std::move(tree)),
        name_(std::move(name)),
        orders_(ComputeOrders(tree_)) {}

  /// Not copyable/movable (the lazy index state pins the address);
  /// construct in place or use MakeDocument for a shared handle.
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  const Tree& tree() const { return tree_; }
  int num_nodes() const { return tree_.num_nodes(); }

  /// Display name; empty for anonymous documents.
  const std::string& name() const { return name_; }

  /// Process-unique version stamp assigned at construction (see
  /// NextDocumentEpoch). The treeq::cache layer keys cached axis images and
  /// whole-query results on it: two Documents never share an epoch, so a
  /// cache entry can only ever be served for the exact tree it was computed
  /// on.
  uint64_t epoch() const { return epoch_; }

  /// Subtree sizes and depths (tree/orders.h), computed at construction.
  const TreeOrders& orders() const { return orders_; }

  /// The per-label inverted index (tree/label_index.h). Built at most once,
  /// lazily; concurrent first calls are safe.
  const LabelIndex& label_index() const {
    if (!index_computed_.load(std::memory_order_acquire)) {
      std::call_once(index_once_, [this] {
        label_index_ = std::make_unique<LabelIndex>(tree_, orders_);
        index_computed_.store(true, std::memory_order_release);
      });
    }
    return *label_index_;
  }

  /// True once the label index is available without computation.
  bool label_index_computed() const {
    return index_computed_.load(std::memory_order_acquire);
  }

 private:
  Tree tree_;
  std::string name_;
  const TreeOrders orders_;
  const uint64_t epoch_ = NextDocumentEpoch();
  mutable std::once_flag index_once_;
  mutable std::unique_ptr<LabelIndex> label_index_;
  mutable std::atomic<bool> index_computed_{false};
};

/// Shared read-only handle to a Document. The engine APIs traffic in these.
using DocumentPtr = std::shared_ptr<const Document>;

/// Builds a shared Document from a tree.
inline DocumentPtr MakeDocument(Tree tree, std::string name = "") {
  return std::make_shared<Document>(std::move(tree), std::move(name));
}

}  // namespace treeq

#endif  // TREEQ_TREE_DOCUMENT_H_
