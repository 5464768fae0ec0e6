#ifndef TREEQ_DATALOG_STRATIFIED_H_
#define TREEQ_DATALOG_STRATIFIED_H_

#include <map>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "tree/axes.h"
#include "tree/document.h"
#include "tree/tree.h"
#include "util/status.h"

/// \file stratified.h
/// Monadic datalog with stratified negation over trees. Section 3 notes
/// that Core XPath translates into TMNF "in the presence of negation ...
/// for which no analogous language feature exists in datalog" — [29]
/// achieves this with complementation gadgets inside one program; here the
/// same expressiveness is provided the way production engines do it:
///
///   1. stratify the predicate dependency graph (error if some negation
///      sits on a cycle);
///   2. evaluate the strata bottom-up through the Theorem 3.2 pipeline,
///      materializing every predicate of a stratum (one grounding + one
///      Minoux run per stratum);
///   3. lower-stratum predicates become *labels* on an augmented copy of
///      the tree — "__strat_P" for P and "__strat_not_P" for its
///      complement — so each stratum is again plain monadic datalog.
///
/// Total cost: O(strata * |P| * |Dom|), still linear in the document.

namespace treeq {
namespace datalog {

/// Computes the stratum of every intensional predicate (0-based), or
/// InvalidArgument if negation occurs on a dependency cycle. The program
/// must Validate(/*allow_negation=*/true).
Result<std::map<std::string, int>> Stratify(const Program& program);

/// Evaluation statistics.
struct StratifiedStats {
  int strata = 0;
};

/// Evaluates the query predicate of a stratified monadic datalog program.
Result<NodeSet> EvaluateStratified(const Program& program,
                                   const Document& doc,
                                   StratifiedStats* stats = nullptr);

/// Helper (exposed for tests): a structural copy of `tree` with the extra
/// labels of `annotations` added (label -> set of nodes carrying it).
Tree AugmentLabels(const Tree& tree,
                   const std::map<std::string, NodeSet>& annotations);

}  // namespace datalog
}  // namespace treeq

#endif  // TREEQ_DATALOG_STRATIFIED_H_
