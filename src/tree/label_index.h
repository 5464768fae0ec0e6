#ifndef TREEQ_TREE_LABEL_INDEX_H_
#define TREEQ_TREE_LABEL_INDEX_H_

#include <memory>
#include <mutex>
#include <vector>

#include "storage/structural_join.h"
#include "tree/node_set.h"
#include "tree/orders.h"
#include "tree/tree.h"

/// \file label_index.h
/// Per-document inverted label index: for every label, the nodes carrying
/// it, in document (pre) order. Built in one arena pass, it replaces the
/// per-query-node `Tree::NodesWithLabel` scans (plus their sorts) that the
/// structural/twig joins used to issue. The Document (tree/document.h)
/// builds it once and every query over that document reads it.
///
/// Two views are exposed:
///   - Items(label):  the sorted JoinItem stream the structural joins and
///     TwigStack consume directly;
///   - Set(label):    the per-label NodeSet the XPath label-filter step
///     intersects with (built lazily per label, thread-safe).

namespace treeq {

class LabelIndex {
 public:
  /// One pass over the arena in id (= pre) order; `orders` must belong to
  /// `tree`.
  LabelIndex(const Tree& tree, const TreeOrders& orders);

  LabelIndex(const LabelIndex&) = delete;
  LabelIndex& operator=(const LabelIndex&) = delete;

  /// Join input stream for `label`, sorted by pre rank. Returns an empty
  /// stream for kNullLabel / labels interned after the index was built.
  const std::vector<JoinItem>& Items(LabelId label) const;

  /// Bitmap of the nodes carrying `label` (same fallback as Items).
  /// Lazily materialized from the item stream; safe to call concurrently.
  const NodeSet& Set(LabelId label) const;

  int universe() const { return universe_; }
  int num_labels() const { return static_cast<int>(items_.size()); }

 private:
  bool InRange(LabelId label) const {
    return label >= 0 && label < num_labels();
  }

  int universe_ = 0;
  std::vector<std::vector<JoinItem>> items_;  // indexed by LabelId

  mutable std::mutex sets_mu_;
  mutable std::vector<std::unique_ptr<NodeSet>> sets_;
  mutable std::unique_ptr<NodeSet> empty_set_;  // for out-of-range labels
};

}  // namespace treeq

#endif  // TREEQ_TREE_LABEL_INDEX_H_
