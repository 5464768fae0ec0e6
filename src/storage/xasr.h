#ifndef TREEQ_STORAGE_XASR_H_
#define TREEQ_STORAGE_XASR_H_

#include <utility>
#include <vector>

#include "tree/orders.h"
#include "tree/tree.h"

/// \file xasr.h
/// The eXtended Access Support Relation of Figure 2 ([27]): one tuple
/// (pre, post, parent_pre, label) per node, the relational storage scheme on
/// which structural joins run. Ranks are 0-based (the paper uses 1-based).
///
/// The two SQL views of Example 2.1 are provided as methods:
///   descendant: SELECT r1.pre, r2.pre FROM R r1, R r2
///               WHERE r1.pre < r2.pre AND r2.post < r1.post
///   child:      SELECT parent_pre, pre FROM R WHERE parent_pre IS NOT NULL

namespace treeq {

/// One XASR tuple. `parent_pre` is kNoParent for the root. `label` is the
/// node's first label (kNullLabel if unlabeled).
struct XasrRow {
  int pre = 0;
  int post = 0;
  int parent_pre = -1;
  LabelId label = kNullLabel;

  static constexpr int kNoParent = -1;
};

/// The XASR of a tree: rows sorted by `pre` (document order), so row i has
/// pre == i and, since node ids are pre ranks, describes node i.
class Xasr {
 public:
  /// Builds the relation from a tree in O(n).
  static Xasr Build(const Tree& tree, const TreeOrders& orders);

  int num_rows() const { return static_cast<int>(rows_.size()); }
  const XasrRow& row(int pre) const { return rows_[pre]; }
  const std::vector<XasrRow>& rows() const { return rows_; }

  /// The `descendant` view: all (ancestor_pre, descendant_pre) pairs via the
  /// theta-join of Example 2.1. O(n^2) evaluation, quadratic output — this
  /// is the single structural join the paper contrasts with repeated
  /// relational joins.
  std::vector<std::pair<int, int>> DescendantView() const;

  /// The `child` view: all (parent_pre, child_pre) pairs. O(n).
  std::vector<std::pair<int, int>> ChildView() const;

  /// Pre ranks of rows with the given label, sorted (a "label index" scan).
  std::vector<int> PresWithLabel(LabelId label) const;

  /// Size of the representation in machine words (the O(||A|| log |A|)
  /// argument of Section 2).
  size_t SizeInWords() const { return rows_.size() * 4; }

 private:
  std::vector<XasrRow> rows_;
};

/// Strawman the paper argues against: computes Child+ by iterating joins of
/// the Child relation to a fixpoint (an "arbitrary number of joins in an
/// RDBMS"). Returns (ancestor_pre, descendant_pre) pairs. Used as the
/// baseline in bench_fig2_xasr.
std::vector<std::pair<int, int>> DescendantByIteratedJoins(const Xasr& xasr);

}  // namespace treeq

#endif  // TREEQ_STORAGE_XASR_H_
