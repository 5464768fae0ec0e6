#ifndef TREEQ_XPATH_NAIVE_EVALUATOR_H_
#define TREEQ_XPATH_NAIVE_EVALUATOR_H_

#include <cstdint>

#include "tree/axes.h"
#include "tree/document.h"
#include "util/exec_context.h"
#include "util/status.h"
#include "xpath/ast.h"

/// \file naive_evaluator.h
/// The textbook per-context-node recursive Core XPath interpreter: a direct
/// transliteration of the semantic equations (P1)-(P4), (Q1)-(Q5) of
/// Section 3, re-evaluating each subexpression for every context node it is
/// reached from. This is how early XPath engines worked and why their
/// combined complexity is exponential ([32]); it is the baseline against
/// which the set-at-a-time evaluator's O(|D|*|Q|) bound is demonstrated
/// (bench_xpath_combined).

namespace treeq {
namespace xpath {

/// Counts semantic-rule applications so benches can report work performed.
struct NaiveStats {
  uint64_t rule_applications = 0;
};

/// [[path]](context) as a node set. The ExecContext (util/exec_context.h)
/// is charged one unit per rule application, so visit budgets keep the
/// exponential recursion bounded in tests and benches, and deadlines and
/// cancellation abort it cooperatively.
Result<NodeSet> NaiveEvalPath(const Document& doc, const PathExpr& path,
                              NodeId context, NaiveStats* stats = nullptr,
                              const ExecContext& exec =
                                  ExecContext::Unbounded());

}  // namespace xpath
}  // namespace treeq

#endif  // TREEQ_XPATH_NAIVE_EVALUATOR_H_
