#ifndef TREEQ_CQ_ENUMERATE_H_
#define TREEQ_CQ_ENUMERATE_H_

#include <cstdint>

#include "cq/ast.h"
#include "cq/yannakakis.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file enumerate.h
/// Backtracking-free enumeration of all solutions of an acyclic conjunctive
/// query from a fully reduced (globally consistent) pre-valuation —
/// Figure 6 and Propositions 6.9/6.10. Because every candidate value
/// participates in a solution, the recursion of Figure 6 never dead-ends:
/// each partner of a parent binding completes to at least one output. The
/// partners are walked directly (pre-order intervals for Child+, Child*
/// and Following, pointer walks for the other axes), so enumeration costs
/// O(|Q| * ||A|| + ||Q(A)||) on top of the reducer.

namespace treeq {
namespace cq {

/// Enumerates complete satisfying valuations (one entry per query variable)
/// in the variable order of Figure 6 (pre-order DFS of the query tree).
/// Stops after `limit` solutions. Input must come from FullReducer on a
/// satisfiable query (reduced.satisfiable). The ExecContext is charged one
/// unit per enumerated partner plus the solution-vector bytes against the
/// memory budget, so deadlines bound output enumeration too.
Result<std::vector<std::vector<NodeId>>> EnumerateSolutions(
    const ConjunctiveQuery& query, const Document& doc,
    const ReducedQuery& reduced, uint64_t limit = UINT64_MAX,
    const ExecContext& exec = ExecContext::Unbounded());

/// Full k-ary acyclic evaluation (Proposition 6.10): FullReducer +
/// enumeration + head projection, deduplicated. Arity-0 and arity-1
/// queries need no enumeration: see EvaluateBooleanAcyclic and
/// EvaluateUnaryAcyclic (cq/yannakakis.h). `exec` and `memo` are passed
/// to FullReducer; enumeration charges `exec` too.
Result<TupleSet> EvaluateAcyclic(const ConjunctiveQuery& query,
                                 const Document& doc,
                                 const ExecContext& exec =
                                     ExecContext::Unbounded(),
                                 AxisImageMemo* memo = nullptr);

}  // namespace cq
}  // namespace treeq

#endif  // TREEQ_CQ_ENUMERATE_H_
