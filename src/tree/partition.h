#ifndef TREEQ_TREE_PARTITION_H_
#define TREEQ_TREE_PARTITION_H_

#include <map>
#include <mutex>
#include <vector>

#include "tree/node_set.h"
#include "tree/orders.h"
#include "tree/tree.h"

/// \file partition.h
/// `TreePartition`: the document decomposition behind intra-query
/// parallelism (tree/par_axes.h).
///
/// The pre order is dense — every pre rank in [0, n) names exactly one
/// node — so cutting pre-rank space into K contiguous ranges yields K
/// disjoint, jointly exhaustive node classes that are perfectly balanced by
/// node count and word-aligned in rank space. Because subtrees are
/// contiguous pre-rank intervals (the laminar-range property the
/// descendant kernel already exploits), each range is a union of whole
/// subtrees plus at most one "spine" of ancestors cut at the boundary;
/// the parallel kernel never relies on more than disjointness + coverage,
/// which hold unconditionally.
///
/// For each degree K the partition caches one node-id mask per range
/// (`Masks(k)[i]` = { v : pre[v] in range i }), so splitting an input
/// NodeSet across partitions is K word-parallel ANDs. Masks are built
/// lazily per degree and cached; a TreePartition is computed once per
/// Document and cached on it like the LabelIndex (tree/document.h), so
/// repeated parallel queries pay nothing after the first.
///
/// Thread safety: const methods are safe to call concurrently; the lazy
/// mask cache is mutex-protected.

namespace treeq {

class TreePartition {
 public:
  /// Half-open pre-rank range [begin, end).
  struct Range {
    int begin = 0;
    int end = 0;
  };

  /// `orders` must have been computed from `tree` and must outlive the
  /// partition (the Document cache guarantees both).
  TreePartition(const Tree& tree, const TreeOrders& orders)
      : orders_(&orders), num_nodes_(tree.num_nodes()) {}

  TreePartition(const TreePartition&) = delete;
  TreePartition& operator=(const TreePartition&) = delete;

  int num_nodes() const { return num_nodes_; }

  /// The K contiguous pre-rank ranges for degree `k` (clamped to
  /// [1, num_nodes]): equal widths rounded up to a multiple of 64 so the
  /// identity-pre fast path splits on word boundaries. Trailing ranges may
  /// be empty when 64-alignment exhausts the rank space early; empty
  /// ranges are kept so Ranges(k).size() == Masks(k).size() == k.
  std::vector<Range> Ranges(int k) const;

  /// Node-id masks for degree `k`: Masks(k)[i] is the NodeSet of nodes
  /// whose pre rank falls in Ranges(k)[i]. Built on first use per degree,
  /// then cached; the reference stays valid for the partition's lifetime.
  const std::vector<NodeSet>& Masks(int k) const;

 private:
  int ClampDegree(int k) const;

  const TreeOrders* orders_;
  int num_nodes_;
  mutable std::mutex mu_;
  mutable std::map<int, std::vector<NodeSet>> masks_;
};

}  // namespace treeq

#endif  // TREEQ_TREE_PARTITION_H_
