#ifndef TREEQ_CQ_ARC_CONSISTENCY_H_
#define TREEQ_CQ_ARC_CONSISTENCY_H_

#include <vector>

#include "cq/ast.h"
#include "tree/document.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file arc_consistency.h
/// Arc-consistent pre-valuations (Section 6). A pre-valuation assigns each
/// query variable a nonempty candidate node set; it is arc-consistent when
/// every unary atom holds on every candidate and every binary atom has
/// support in both directions (Definition in Section 6).
///
/// ComputeMaxArcConsistent computes the unique subset-maximal arc-consistent
/// pre-valuation. Two interchangeable implementations are provided (an
/// ablation benchmarked in bench_thm65_xbar); both compute the same greatest
/// fixpoint, so their outputs are identical:
///   - kDirect: a fixpoint over axis images. Each atom R(x, y) narrows
///     Theta(x) to the R^-1-image of Theta(y) and Theta(y) to the R-image
///     of Theta(x) (tree/axes.h, O(n) each, no axis relation is ever
///     materialized) until no set shrinks. An atom is re-applied only after
///     another atom shrank one of its variables.
///   - kHornEncoding: the paper's proof of Proposition 6.2 verbatim —
///     materialize the used axis relations (||A||, quadratic for Child+ and
///     Following), encode "v is NOT in Theta(x)" as propositional Horn
///     clauses and run Minoux' algorithm, in O(||A|| * |Q|).

namespace treeq {
namespace cq {

/// Candidate sets, indexed by query variable.
using PreValuation = std::vector<NodeSet>;

enum class AcImplementation {
  kDirect,
  kHornEncoding,
};

/// Result of the maximal-arc-consistency computation. When `consistent` is
/// false some variable's candidate set is empty and no arc-consistent
/// pre-valuation exists (so the query is unsatisfiable, Section 6).
/// `status` is non-OK only when the ExecContext tripped mid-fixpoint; then
/// `theta` is partial and `consistent` is false.
struct AcResult {
  bool consistent = false;
  PreValuation theta;
  Status status;
};

/// Per-variable candidate sets restricted by the unary (label) atoms: each
/// atom is a word-wise intersection with the document's cached per-label
/// bitmap (tree/label_index.h).
PreValuation LabelRestrictedCandidates(const ConjunctiveQuery& query,
                                       const Document& doc);

/// Computes the subset-maximal arc-consistent pre-valuation of `query` on
/// `doc`. If `initial` is non-null it restricts the starting candidate
/// sets (used e.g. for the singleton relations of tuple-membership checks,
/// Section 6); by default every variable starts at the whole domain.
/// kDirect seeds the label atoms from the document's LabelIndex and
/// charges `exec` 1 + n/64 per axis image, the set-at-a-time unit;
/// kHornEncoding ignores it.
AcResult ComputeMaxArcConsistent(
    const ConjunctiveQuery& query, const Document& doc,
    AcImplementation implementation = AcImplementation::kDirect,
    const PreValuation* initial = nullptr,
    const ExecContext& exec = ExecContext::Unbounded());

/// Checks the arc-consistency conditions for `theta` directly from the
/// definition (O(|Q| * n^2); for tests).
bool IsArcConsistent(const ConjunctiveQuery& query, const Document& doc,
                     const PreValuation& theta);

}  // namespace cq
}  // namespace treeq

#endif  // TREEQ_CQ_ARC_CONSISTENCY_H_
