#ifndef TREEQ_FO_COROLLARY52_H_
#define TREEQ_FO_COROLLARY52_H_

#include <vector>

#include "cq/ast.h"
#include "fo/ast.h"
#include "tree/document.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file corollary52.h
/// Corollary 5.2: a fixed positive Boolean FO query evaluates on trees in
/// time O(||A||). The pipeline composes the paper's Section 5 machinery:
///
///   positive FO --(DNF over existentials, fresh renaming)-->
///     union of conjunctive queries --(Theorem 5.1, lazy variant)-->
///     union of acyclic (forest-shaped) positive queries --(Yannakakis
///     per connected component)--> Boolean answer.
///
/// Everything except the final Yannakakis step depends only on the query,
/// so for a fixed query the document-dependent cost is linear.

namespace treeq {
namespace fo {

/// DNF conversion: an equivalent union of conjunctive queries. Requires
/// IsPositive(formula). Free variables become head variables (in
/// FreeVariables order); equality atoms are encoded as Self axis atoms
/// (unified away by the rewriting). Exponential in the number of kOr nodes.
Result<std::vector<cq::ConjunctiveQuery>> PositiveFoToCqUnion(
    const Formula& formula);

/// Work counters for the bench.
struct Corollary52Stats {
  int cq_disjuncts = 0;       // after DNF
  int acyclic_disjuncts = 0;  // after Theorem 5.1
};

/// Corollary 5.2: truth of a positive FO sentence via the pipeline above.
/// Each Yannakakis pass seeds its label atoms from the document's
/// LabelIndex and charges the ExecContext 1 + n/64 per axis image
/// (cq::FullReducer), so budgets, deadlines and cancellation trip inside
/// it.
Result<bool> EvaluateSentencePositive(
    const Formula& formula, const Document& doc,
    Corollary52Stats* stats = nullptr,
    const ExecContext& exec = ExecContext::Unbounded());

}  // namespace fo
}  // namespace treeq

#endif  // TREEQ_FO_COROLLARY52_H_
