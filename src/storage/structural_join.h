#ifndef TREEQ_STORAGE_STRUCTURAL_JOIN_H_
#define TREEQ_STORAGE_STRUCTURAL_JOIN_H_

#include <utility>
#include <vector>

#include "tree/orders.h"
#include "tree/tree.h"

/// \file structural_join.h
/// Structural joins ([2], Section 2): given two lists of nodes A ("ancestor
/// candidates") and D ("descendant candidates"), compute all pairs (a, d)
/// with a an ancestor (or parent) of d. The stack-based merge algorithm runs
/// in O(|A| + |D| + |output|) on document-ordered inputs; the nested-loop
/// baseline is O(|A| * |D|).

namespace treeq {

/// A node's structural coordinates: pre rank, end of subtree in pre ranks,
/// and depth (depth is needed only for parent-child joins). Node ids are
/// pre ranks (tree/tree.h), so `pre == node`; the joins compare `pre` and
/// emit `node`, as the region encoding of [2] does.
struct JoinItem {
  int pre = 0;
  int end = 0;  // SubtreeEndPre: pre + subtree size
  int depth = 0;
  NodeId node = kNullNode;
};

/// Builds join input items for `nodes`, sorted by document order.
std::vector<JoinItem> MakeJoinItems(const TreeOrders& orders,
                                    const std::vector<NodeId>& nodes);

/// Builds join input items for all nodes carrying `label`. One arena scan +
/// sort per call; when joining on several labels of one document, build a
/// LabelIndex (tree/label_index.h) instead and borrow its Items(label)
/// streams — one scan, already sorted.
std::vector<JoinItem> MakeJoinItemsForLabel(const Tree& tree,
                                            const TreeOrders& orders,
                                            LabelId label);

/// Ancestor-descendant (or parent-child, if `parent_child`) structural join
/// via the stack-tree merge of [2]. Inputs must be sorted by `pre`
/// (MakeJoinItems guarantees this). Returns (ancestor, descendant) node
/// pairs, grouped by descendant in document order.
std::vector<std::pair<NodeId, NodeId>> StackTreeJoin(
    const std::vector<JoinItem>& ancestors,
    const std::vector<JoinItem>& descendants, bool parent_child);

/// Nested-loop baseline with identical output contract (modulo order).
std::vector<std::pair<NodeId, NodeId>> NestedLoopJoin(
    const std::vector<JoinItem>& ancestors,
    const std::vector<JoinItem>& descendants, bool parent_child);

}  // namespace treeq

#endif  // TREEQ_STORAGE_STRUCTURAL_JOIN_H_
