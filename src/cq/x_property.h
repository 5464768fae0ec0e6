#ifndef TREEQ_CQ_X_PROPERTY_H_
#define TREEQ_CQ_X_PROPERTY_H_

#include <optional>
#include <utility>
#include <vector>

#include "cq/arc_consistency.h"
#include "cq/ast.h"
#include "tree/orders.h"
#include "util/status.h"

/// \file x_property.h
/// The X-underbar property (Definition 6.3, [45]) and the Theorem 6.5
/// evaluator built on it: on structures whose binary relations all have the
/// X-property w.r.t. a total order <, the minimum valuation of the maximal
/// arc-consistent pre-valuation is consistent (Lemma 6.4), so Boolean
/// conjunctive queries evaluate in O(||A|| * |Q|).
///
/// Proposition 6.6 fixes which axes have the property for which tree order:
///   <pre  : Child+, Child*                                   (tau_1)
///   <post : Following                                        (tau_2)
///   <bflr : Child, NextSibling, NextSibling*, NextSibling+   (tau_3)
/// (plus Self, trivially, for any order). This list is complete, which is
/// what drives the Theorem 6.8 dichotomy (dichotomy.h).

namespace treeq {
namespace cq {

/// The three candidate total orders of the paper.
enum class TreeOrder { kPre, kPost, kBflr };

const char* TreeOrderName(TreeOrder order);

/// rank[v] = position of node v in the order: the id for <pre,
/// TreeOrders::Post for <post, and a breadth-first walk for <bflr. O(n).
std::vector<int> RankOf(const Tree& tree, const TreeOrders& orders,
                        TreeOrder order);

/// Definition 6.3 on an explicit relation: for all n0 < n1, n2 < n3,
/// R(n1, n2) and R(n0, n3) imply R(n0, n2). O(|R|^2) check.
bool HasXProperty(const std::vector<std::pair<NodeId, NodeId>>& relation,
                  const std::vector<int>& rank);

/// Definition 6.3 for an axis over a concrete tree (materializes the axis).
bool AxisHasXPropertyOn(const Tree& tree, const TreeOrders& orders, Axis axis,
                        TreeOrder order);

/// The Proposition 6.6 table: does `axis` have the X-property w.r.t.
/// `order` on every tree? (Inverse axes are classified via their canonical
/// counterparts' semantics, i.e. they generally do NOT inherit the
/// property.)
bool XPropertyHolds(Axis axis, TreeOrder order);

/// Picks an order under which every axis of `query` has the X-property
/// (after inverse-axis normalization), or nullopt if none exists — the
/// tractability test of the dichotomy.
std::optional<TreeOrder> PickXOrder(const ConjunctiveQuery& query);

/// Lemma 6.4: the minimum valuation of `theta` w.r.t. the order.
std::vector<NodeId> MinimumValuation(const PreValuation& theta,
                                     const std::vector<int>& rank);

/// The same minimum, comparing nodes through `orders` in O(1) instead of
/// through a rank array: what the evaluators below use.
std::vector<NodeId> MinimumValuation(const PreValuation& theta,
                                     const TreeOrders& orders,
                                     TreeOrder order);

/// Result of EvaluateXProperty: satisfiability plus, if satisfiable, the
/// witness valuation (indexed by query variable).
struct XEvalResult {
  bool satisfiable = false;
  std::vector<NodeId> witness;
};

/// Theorem 6.5: evaluates the Boolean query via arc-consistency + minimum
/// valuation. Requires every axis of `query` (inverse-normalized) to have
/// the X-property w.r.t. `order`; InvalidArgument otherwise. `exec` is
/// passed to ComputeMaxArcConsistent.
Result<XEvalResult> EvaluateXProperty(
    const ConjunctiveQuery& query, const Document& doc, TreeOrder order,
    AcImplementation ac = AcImplementation::kDirect,
    const ExecContext& exec = ExecContext::Unbounded());

/// Membership check for a k-ary query: is `tuple` in the result? Realized
/// as in Section 6 by adding singleton unary relations and evaluating the
/// Boolean query.
Result<bool> XPropertyTupleCheck(const ConjunctiveQuery& query,
                                 const Document& doc, TreeOrder order,
                                 const std::vector<NodeId>& tuple);

}  // namespace cq
}  // namespace treeq

#endif  // TREEQ_CQ_X_PROPERTY_H_
