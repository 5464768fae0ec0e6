#ifndef TREEQ_DATALOG_EVALUATOR_H_
#define TREEQ_DATALOG_EVALUATOR_H_

#include <map>
#include <string>

#include "datalog/ast.h"
#include "tree/axes.h"
#include "tree/document.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file evaluator.h
/// End-to-end monadic datalog evaluation over trees.
///
/// EvaluateDatalog realizes Theorem 3.2's O(|P| * |Dom|) pipeline:
///   program -> TMNF (tmnf.h) -> ground Horn clauses (grounder.h)
///           -> Minoux' algorithm (horn.h) -> query-predicate node set.
///
/// EvaluateDatalogNaive is an independent oracle: a bottom-up fixpoint that
/// enumerates rule matches by backtracking over materialized axis semantics.
/// Exponential in rule arity, used to cross-check the fast path in tests.

namespace treeq {
namespace datalog {

/// Statistics of one EvaluateDatalog run (exposed for the benches).
struct EvalStats {
  int tmnf_rules = 0;
  int ground_clauses = 0;
  int64_t ground_literals = 0;
};

/// Evaluates the program's query predicate over `doc` via TMNF + grounding
/// + Minoux. Returns the set of nodes in the query result. The ExecContext
/// is charged for the grounding (per ground literal, also against the
/// memory budget) and per derivation step of the Horn fixpoint.
Result<NodeSet> EvaluateDatalog(const Program& program, const Document& doc,
                                EvalStats* stats = nullptr,
                                const ExecContext& exec =
                                    ExecContext::Unbounded());

/// Like EvaluateDatalog, but returns the value of EVERY intensional
/// predicate (one grounding, one Minoux run). Used by the stratified
/// evaluator, which must materialize all heads of a stratum.
Result<std::map<std::string, NodeSet>> EvaluateDatalogAllPredicates(
    const Program& program, const Document& doc);

/// Reference oracle (see file comment). Charged per assignment tried in
/// the rule matcher.
Result<NodeSet> EvaluateDatalogNaive(const Program& program,
                                     const Document& doc,
                                     const ExecContext& exec =
                                         ExecContext::Unbounded());

}  // namespace datalog
}  // namespace treeq

#endif  // TREEQ_DATALOG_EVALUATOR_H_
