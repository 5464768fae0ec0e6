#ifndef TREEQ_CQ_YANNAKAKIS_H_
#define TREEQ_CQ_YANNAKAKIS_H_

#include "cq/arc_consistency.h"
#include "cq/ast.h"
#include "tree/axes.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file yannakakis.h
/// Yannakakis' algorithm for acyclic conjunctive queries ([77], Section 4),
/// specialized to trees: for a tree-shaped query the join tree is the query
/// tree itself, and every semijoin against an axis relation is an O(n) axis
/// set-image — which is how the unary conjunctive Core XPath queries run in
/// O(||A|| * |Q|) (Proposition 4.2) without ever materializing quadratic
/// axis relations.
///
/// FullReducer performs the bottom-up + top-down semijoin passes. Its
/// output candidate sets are globally consistent: every candidate value
/// participates in at least one solution (the full-reducer property restated
/// as Proposition 6.9). enumerate.h reads solutions out of them.

namespace treeq {
namespace cq {

/// A fully reduced query: per-variable candidate sets in which every value
/// extends to a solution. `satisfiable` is false iff some set is empty.
struct ReducedQuery {
  bool satisfiable = false;
  PreValuation candidates;
  /// The query tree used: parent variable of each variable (-1 at the
  /// root), in the rooting chosen by the reducer.
  std::vector<int> parent_var;
  /// The axis relating parent_var[v] to v, oriented parent -> v.
  std::vector<Axis> parent_axis;
};

/// Runs the full reducer. Requires query.IsTreeShaped() (see
/// ConjunctiveQuery::IsTreeShaped; parallel edges would need relation-level
/// — not set-level — reduction and are rejected). `root_var` selects the
/// rooting; pass -1 for variable 0, or a head variable so unary results can
/// be read from the root's candidate set.
///
/// The label atoms seed the candidate sets from the document's cached
/// per-label NodeSets (tree/label_index.h), one word-wise intersection per
/// atom. `memo` (tree/axes.h), when set, memoizes the axis images of the
/// bottom-up and top-down semijoin sweeps, so repeated twigs over one
/// document reuse each other's reductions; the candidate sets stay
/// bit-identical. `exec` is charged 1 + n/64 per semijoin image, memo hit
/// or not.
Result<ReducedQuery> FullReducer(
    const ConjunctiveQuery& query, const Document& doc, int root_var = -1,
    AxisImageMemo* memo = nullptr,
    const ExecContext& exec = ExecContext::Unbounded());

/// Boolean acyclic evaluation in O(||A|| * |Q|) (Theorem 4.1's tree case):
/// `reduced.satisfiable`, with nothing enumerated. `exec` and `memo` are
/// passed to FullReducer.
Result<bool> EvaluateBooleanAcyclic(
    const ConjunctiveQuery& query, const Document& doc,
    const ExecContext& exec = ExecContext::Unbounded(),
    AxisImageMemo* memo = nullptr);

/// Unary acyclic evaluation in O(||A|| * |Q|) (Proposition 4.2): the head
/// variable's fully-reduced candidate set, with the reducer rooted at the
/// head variable and nothing enumerated. Same hooks as above.
Result<NodeSet> EvaluateUnaryAcyclic(
    const ConjunctiveQuery& query, const Document& doc,
    const ExecContext& exec = ExecContext::Unbounded(),
    AxisImageMemo* memo = nullptr);

/// Boolean evaluation of forest-shaped queries (each connected component
/// tree-shaped; components may be disconnected): satisfiable iff every
/// component is. This is what the Theorem 5.1 rewriting outputs feed into
/// (Corollary 5.2's linear-time positive-FO pipeline). `exec` is passed to
/// each component's EvaluateBooleanAcyclic.
Result<bool> EvaluateBooleanAcyclicForest(
    const ConjunctiveQuery& query, const Document& doc,
    const ExecContext& exec = ExecContext::Unbounded());

}  // namespace cq
}  // namespace treeq

#endif  // TREEQ_CQ_YANNAKAKIS_H_
