#ifndef TREEQ_CQ_TREEWIDTH_EVAL_H_
#define TREEQ_CQ_TREEWIDTH_EVAL_H_

#include <cstdint>

#include "cq/ast.h"
#include "tree/document.h"
#include "tree/treewidth.h"
#include "util/status.h"

/// \file treewidth_eval.h
/// Theorem 4.1 ([17]): a Boolean conjunctive query of tree-width k can be
/// evaluated in time O((|A|^{k+1} + ||A||) * |Q|). The algorithm:
///
///   1. tree-decompose the query graph (variables as vertices, binary atoms
///      as edges) with the min-degree heuristic of tree/treewidth.h;
///   2. materialize, per decomposition bag, the relation of all satisfying
///      assignments of the bag's variables — |A|^{bag size} candidates,
///      filtered by the atoms covered by the bag;
///   3. run Yannakakis on the (always acyclic) decomposition tree:
///      a bottom-up semijoin sweep decides the Boolean query; a top-down
///      sweep plus projection yields distinguished-variable results.
///
/// This generalizes acyclic evaluation (tree-shaped queries have width 1
/// and bags of size 2) and is the paper's route from bounded tree-width to
/// tractability. For X-underbar signatures, x_property.h is cheaper; for
/// arbitrary cyclic queries of small width, this is the polynomial path.

namespace treeq {
namespace cq {

/// Evaluation statistics (exposed for the benches).
struct TreewidthEvalStats {
  int width = 0;                 // width of the decomposition used
  uint64_t bag_tuples = 0;       // total materialized bag-relation tuples
  uint64_t candidate_checks = 0; // assignments filtered during step 2
};

/// Evaluates the Boolean query via the decomposition. Any conjunctive
/// query is accepted; cost is exponential only in the decomposition width.
Result<bool> EvaluateBooleanTreewidth(const ConjunctiveQuery& query,
                                      const Document& doc,
                                      TreewidthEvalStats* stats = nullptr);

/// Full evaluation: all result tuples over the query's head variables
/// (deduplicated, sorted). Uses the same decomposition machinery, with the
/// head variables joined into the bags that cover them.
Result<TupleSet> EvaluateTreewidth(const ConjunctiveQuery& query,
                                   const Document& doc,
                                   TreewidthEvalStats* stats = nullptr);

}  // namespace cq
}  // namespace treeq

#endif  // TREEQ_CQ_TREEWIDTH_EVAL_H_
