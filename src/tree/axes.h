#ifndef TREEQ_TREE_AXES_H_
#define TREEQ_TREE_AXES_H_

#include <string>
#include <string_view>
#include <vector>

#include "tree/node_set.h"
#include "tree/orders.h"
#include "tree/tree.h"
#include "util/status.h"

/// \file axes.h
/// The binary tree navigation relations ("axes", Section 2): Child,
/// Child+ (Descendant), Child* (Descendant-or-self), NextSibling,
/// NextSibling+ (Following-Sibling), NextSibling*, Following, FirstChild and
/// all their inverses, plus Self.
///
/// Two access paths are provided:
///   - AxisHolds:  O(1) pair test using the subtree-range characterizations
///     of tree/orders.h;
///   - AxisImage:  O(n) image of a node set under an axis, the workhorse of
///     the set-at-a-time Core XPath evaluator and the tree-specialized
///     semijoins (Sections 3, 4, 6).

namespace treeq {

/// All axes, closed under inverse.
enum class Axis {
  kSelf = 0,
  kChild,                    // Child(u, v): v is a child of u
  kParent,                   // inverse of Child
  kDescendant,               // Child+
  kAncestor,                 // inverse of Child+
  kDescendantOrSelf,         // Child*
  kAncestorOrSelf,           // inverse of Child*
  kNextSibling,              // NextSibling(u, v): v immediately follows u
  kPrevSibling,              // inverse of NextSibling
  kFollowingSibling,         // NextSibling+
  kPrecedingSibling,         // inverse of NextSibling+
  kFollowingSiblingOrSelf,   // NextSibling*
  kPrecedingSiblingOrSelf,   // inverse of NextSibling*
  kFollowing,                // Following(u, v) per the paper's definition
  kPreceding,                // inverse of Following
  kFirstChild,               // FirstChild(u, v): v is the first child of u
  kFirstChildInv,            // inverse of FirstChild
};

inline constexpr int kNumAxes = 17;

/// Returns the inverse axis (kSelf is its own inverse).
Axis InverseAxis(Axis axis);

/// Canonical name, e.g. "child", "descendant", "following-sibling".
const char* AxisName(Axis axis);

/// Parses an axis name. Accepts both XPath-style names ("descendant",
/// "following-sibling") and the paper's relational names ("Child+",
/// "NextSibling*", "Following", "FirstChild").
Result<Axis> ParseAxis(std::string_view name);

/// True for Child+, Child*, NextSibling+, NextSibling*, Following and their
/// inverses (used by the treewidth discussion and the rewriting engine).
bool IsTransitiveAxis(Axis axis);

/// True for the forward axes (Self, Child, Child+, Child*, NextSibling,
/// NextSibling+, NextSibling*, Following, FirstChild) — the fragment a
/// streaming evaluator can run (Section 5).
bool IsForwardAxis(Axis axis);

/// O(1) test whether Axis(u, v) holds. Requires `orders` computed from
/// `tree`.
bool AxisHolds(const Tree& tree, const TreeOrders& orders, Axis axis, NodeId u,
               NodeId v);

/// Computes `to` = { v : exists u in `from` with Axis(u, v) }, Section 3's
/// linear-time building block. The kernels are word-parallel: they iterate
/// only the set bits of `from` (tree/node_set.h skip-scan) and mark
/// contiguous id (= pre-rank) ranges with word fills, so the cost is
/// O(|from| + |to| + n/64) for most axes rather than a full n-node probe
/// loop; O(n) remains the worst case.
void AxisImage(const Tree& tree, const TreeOrders& orders, Axis axis,
               const NodeSet& from, NodeSet* to);

/// Memoization seam for AxisImage. The cache layer (src/cache/eval_cache.h)
/// implements this against a per-document, epoch-keyed store; the tree and
/// evaluator layers only ever see the abstract interface, so they carry no
/// cache dependency. Implementations must be safe for concurrent calls and
/// must return results bit-identical to AxisImage — Lookup either leaves
/// `*to` untouched (miss, returns false) or fully overwrites it with the
/// stored image (hit, returns true).
class AxisImageMemo {
 public:
  virtual ~AxisImageMemo() = default;
  virtual bool Lookup(Axis axis, const NodeSet& from, NodeSet* to) = 0;
  virtual void Store(Axis axis, const NodeSet& from, const NodeSet& to) = 0;
};

/// AxisImage through an optional memo: serves `*to` from `memo` when it
/// holds this (axis, from) image, otherwise computes it and stores it back.
/// Returns true when the image came from the memo. A null memo degenerates
/// to plain AxisImage.
bool AxisImageMemoized(const Tree& tree, const TreeOrders& orders, Axis axis,
                       const NodeSet& from, NodeSet* to, AxisImageMemo* memo);

/// All pairs (u, v) with Axis(u, v), in lexicographic (u, v) order. O(n^2)
/// materialization — intended for tests, XASR-style storage, and small
/// structures (this is exactly the quadratic blowup Section 2 warns about).
std::vector<std::pair<NodeId, NodeId>> MaterializeAxis(const Tree& tree,
                                                       const TreeOrders& orders,
                                                       Axis axis);

}  // namespace treeq

#endif  // TREEQ_TREE_AXES_H_
