#ifndef TREEQ_XPATH_NAIVE_EVALUATOR_H_
#define TREEQ_XPATH_NAIVE_EVALUATOR_H_

#include <cstdint>

#include "tree/axes.h"
#include "tree/orders.h"
#include "tree/tree.h"
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

/// [[path]](context) as a node set, or ResourceExhausted if `budget` rule
/// applications were exceeded (the evaluator is exponential; the budget
/// keeps tests and benches bounded). The ExecContext (util/exec_context.h)
/// is charged one unit per rule application, so deadlines and external
/// budgets abort the recursion cooperatively.
Result<NodeSet> NaiveEvalPath(const Tree& tree, const TreeOrders& orders,
                              const PathExpr& path, NodeId context,
                              uint64_t budget = UINT64_MAX,
                              NaiveStats* stats = nullptr,
                              const ExecContext& exec =
                                  ExecContext::Unbounded());

}  // namespace xpath
}  // namespace treeq

#endif  // TREEQ_XPATH_NAIVE_EVALUATOR_H_
