#ifndef TREEQ_TREE_ORDERS_H_
#define TREEQ_TREE_ORDERS_H_

#include <vector>

#include "tree/tree.h"

/// \file orders.h
/// Subtree size and depth per node, from which the paper's orders on tree
/// nodes (Section 2) follow in O(1). Node ids are pre-order ranks
/// (tree/tree.h), so `<pre` is id order and needs no array, and
///   post(v) = v + size(v) - 1 - depth(v).
/// The paper's characterizations then read
///   Child+(x, y)    iff  x <pre y  and  y <post x  iff  x < y < x + size(x)
///   Following(x, y) iff  x <pre y  and  x <post y  iff  y >= x + size(x)
/// Breadth-first order `<bflr` is needed only by the X-property checks of
/// cq/x_property.h, which compute it there.

namespace treeq {

/// Per-node subtree sizes and depths of a Tree. Build once with
/// ComputeOrders; all axis tests and set operators take a const reference.
struct TreeOrders {
  /// depth[n]: number of edges from the root.
  std::vector<int> depth;
  /// size[n]: number of nodes in the subtree rooted at n (including n).
  std::vector<int> size;

  int num_nodes() const { return static_cast<int>(size.size()); }

  /// Post-order rank of n. With its id (the pre rank) and label it is the
  /// (pre, post, label) triple of Section 2 that locates a node in the tree.
  int Post(NodeId n) const { return n + size[n] - 1 - depth[n]; }

  /// Child+(a, b): b is a proper descendant of a. O(1).
  bool IsProperAncestor(NodeId a, NodeId b) const {
    return a < b && b < SubtreeEndPre(a);
  }

  /// Following(a, b) per the paper's definition. O(1).
  bool IsFollowing(NodeId a, NodeId b) const { return b >= SubtreeEndPre(a); }

  /// Id (pre rank) of the first node strictly after the subtree of n in
  /// document order; nodes v >= SubtreeEndPre(n) are exactly Following(n).
  int SubtreeEndPre(NodeId n) const { return n + size[n]; }
};

/// Computes sizes and depths in O(n): two loops over the parent array.
TreeOrders ComputeOrders(const Tree& tree);

}  // namespace treeq

#endif  // TREEQ_TREE_ORDERS_H_
