#ifndef TREEQ_XPATH_EVALUATOR_H_
#define TREEQ_XPATH_EVALUATOR_H_

#include "tree/axes.h"
#include "tree/document.h"
#include "util/exec_context.h"
#include "util/status.h"
#include "xpath/ast.h"

/// \file evaluator.h
/// Set-at-a-time Core XPath evaluation in time O(|D| * |Q|) (data *and*
/// combined complexity) in the style of Gottlob-Koch-Pichler [32, 33]:
/// every subexpression of the query is evaluated exactly once, on whole
/// node sets, using the O(|D|) axis set operators of tree/axes.h.
///
///  - a path applied forward maps a context set to a result set;
///  - a qualifier denotes one node set B(q) = {n : [[q]](n) = true};
///  - an existential path test is evaluated *backward*: the set of nodes
///    from which the path can reach a target set is an inverse-axis image
///    chain. Negation is set complement.

namespace treeq {
namespace xpath {

/// All nodes reachable from `context` via `path`:
/// union over n in context of [[path]]_NodeSet(n).
///
/// The label-filter step reads the document's cached LabelIndex
/// (tree/label_index.h), so a qualifier like [a] is a word-wise bitmap
/// copy. The evaluation charges `exec` one unit per subexpression
/// operation plus one per context/restriction node touched, and aborts
/// with the context's DeadlineExceeded / ResourceExhausted / Cancelled
/// status as soon as a limit trips. The charge schedule is deterministic
/// for a fixed (document, query) pair, so visit budgets are exactly
/// reproducible.
Result<NodeSet> EvalPath(const Document& doc, const PathExpr& path,
                         const NodeSet& context,
                         const ExecContext& exec = ExecContext::Unbounded());

/// The unary Core XPath query [[path]](root) (Section 3), charged as
/// EvalPath.
///
/// With a `memo`, every axis-image step — forward steps and the inverse
/// steps of qualifier paths alike — first consults it (tree/axes.h; in
/// practice a cache::EvalCache::Memo bound to this document's epoch) and
/// stores its freshly computed image back on a miss. The result is
/// bit-identical to the unmemoized evaluation; only the charge schedule
/// differs on hits, which charge the O(words) lookup (1 + |from| words)
/// instead of the saved O(|from|) kernel work.
Result<NodeSet> EvalQueryFromRoot(
    const Document& doc, const PathExpr& path,
    const ExecContext& exec = ExecContext::Unbounded(),
    AxisImageMemo* memo = nullptr);

}  // namespace xpath
}  // namespace treeq

#endif  // TREEQ_XPATH_EVALUATOR_H_
