#ifndef TREEQ_CQ_NAIVE_H_
#define TREEQ_CQ_NAIVE_H_

#include <cstdint>

#include "cq/ast.h"
#include "tree/document.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file naive.h
/// Backtracking evaluation of arbitrary conjunctive queries on trees — the
/// general case, NP-complete in combined complexity (Section 6 /
/// Theorem 6.8's hard side). Used as the test oracle and as the baseline
/// the tractable algorithms are benchmarked against.

namespace treeq {
namespace cq {

/// Counts search-tree nodes so benches can report work performed.
struct NaiveCqStats {
  uint64_t assignments_tried = 0;
};

/// All result tuples (deduplicated, sorted). For Boolean queries, a
/// singleton {{}} if satisfiable and {} otherwise. The ExecContext is
/// charged one unit per assignment tried, so visit budgets bound the
/// search and deadlines and cancellation abort the NP-hard search
/// cooperatively.
Result<TupleSet> NaiveEvaluateCq(const ConjunctiveQuery& query,
                                 const Document& doc,
                                 NaiveCqStats* stats = nullptr,
                                 const ExecContext& exec =
                                     ExecContext::Unbounded());

/// Boolean satisfiability only (stops at the first witness).
Result<bool> NaiveSatisfiableCq(const ConjunctiveQuery& query,
                                const Document& doc,
                                NaiveCqStats* stats = nullptr,
                                const ExecContext& exec =
                                    ExecContext::Unbounded());

}  // namespace cq
}  // namespace treeq

#endif  // TREEQ_CQ_NAIVE_H_
