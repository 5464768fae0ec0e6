#ifndef TREEQ_PLAN_COST_H_
#define TREEQ_PLAN_COST_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "plan/ir.h"
#include "tree/document.h"

/// \file cost.h
/// The cost model behind the engine router (plan/route.h): per-engine cost
/// formulas fed by cheap Document statistics (node count and label
/// frequencies from the LabelIndex).
///
/// Costs are unitless "estimated visits", on the same scale as
/// ExecContext's visit accounting. They only need to *rank* engines;
/// absolute accuracy is a non-goal. The set-at-a-time formula measures |Q|
/// on the IR (atoms plus edges), so it is not the visit bound the budget
/// decision compares against: that bound measures |Q| on the source AST
/// and reaches the router as RouteFacts::native_bound.

namespace treeq {
namespace plan {

/// Every physical engine the router can pick. Names (EngineName) are the
/// engine labels QueryResult and QueryProfile report.
enum class EngineKind {
  kXPathSetAtATime,   // xpath.set_at_a_time
  kXPathNaive,        // xpath.naive (always-dominated baseline)
  kXPathStream,       // xpath.stream
  kTwigStack,         // cq.twigstack
  kStructuralJoins,   // cq.structural_joins
  kYannakakis,        // cq.yannakakis
  kDichotomy,         // cq.dichotomy (x-property fast path / backtracking)
  kDatalogTmnf,       // datalog.tmnf
  kFoCorollary52,     // fo.corollary52
  kFoNaive,           // fo.naive
};

inline constexpr int kNumEngineKinds = 10;

/// Canonical engine label, e.g. "cq.twigstack".
const char* EngineName(EngineKind kind);

/// Inverse of EngineName. Also accepts the post-hoc dichotomy labels
/// "cq.x_property" and "cq.backtracking" (both map to kDichotomy).
/// std::nullopt for anything else.
std::optional<EngineKind> ParseEngineName(std::string_view name);

/// Cheap per-document statistics for the cost formulas. Borrows the
/// Document for label-frequency lookups; must not outlive it.
struct DocStats {
  uint64_t nodes;
  const Document& doc;

  static DocStats For(const Document& doc) { return DocStats(doc); }

  /// Occurrences of `label` in the document (0 for unknown labels).
  uint64_t LabelFrequency(std::string_view label) const;

  /// min over the var's labels of LabelFrequency, or `nodes` for an
  /// unlabeled variable — the candidate-set size a label-driven engine
  /// scans for this variable.
  uint64_t VarCandidates(const IrVar& var) const;

 private:
  explicit DocStats(const Document& d)
      : nodes(static_cast<uint64_t>(d.num_nodes())), doc(d) {}
};

/// Estimated cost of answering `plan` with `kind`, saturating at
/// UINT64_MAX. The caller is responsible for only passing eligible
/// (engine, plan) pairs; the formula does not re-check eligibility.
uint64_t EstimateCost(EngineKind kind, const LogicalPlan& plan,
                      const DocStats& stats);

}  // namespace plan
}  // namespace treeq

#endif  // TREEQ_PLAN_COST_H_
