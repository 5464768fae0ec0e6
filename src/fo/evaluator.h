#ifndef TREEQ_FO_EVALUATOR_H_
#define TREEQ_FO_EVALUATOR_H_

#include "cq/ast.h"
#include "fo/ast.h"
#include "tree/document.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file evaluator.h
/// Naive first-order model checking over trees: direct recursion on the
/// formula, trying every node at each quantifier. Exponential-time in the
/// quantifier depth (FO over trees is PSPACE-complete in combined
/// complexity) but polynomial for any fixed query — the data-complexity
/// side of Section 4's discussion. Serves as the oracle for the Corollary
/// 5.2 pipeline (fo/corollary52.h).

namespace treeq {
namespace fo {

/// Truth of a closed (sentence) formula. InvalidArgument if free variables
/// remain. The ExecContext is charged one unit per recursion step, so
/// visit budgets bound the recursion and deadlines and cancellation abort
/// the PSPACE-hard recursion cooperatively.
Result<bool> EvaluateSentenceNaive(const Formula& formula,
                                   const Document& doc,
                                   const ExecContext& exec =
                                       ExecContext::Unbounded());

/// All satisfying assignments of the free variables (in FreeVariables
/// order), deduplicated and sorted. Charged as EvaluateSentenceNaive.
Result<cq::TupleSet> EvaluateFoNaive(const Formula& formula,
                                     const Document& doc,
                                     const ExecContext& exec =
                                         ExecContext::Unbounded());

}  // namespace fo
}  // namespace treeq

#endif  // TREEQ_FO_EVALUATOR_H_
