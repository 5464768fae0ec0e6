#include "plan/cost.h"

#include <algorithm>

namespace treeq {
namespace plan {

namespace {

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > UINT64_MAX / b) return UINT64_MAX;
  return a * b;
}

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

/// Atom count of the plan; the size proxy |Q| the per-node formulas scale
/// with. Opaque plans fall back to a rendering-length proxy.
uint64_t PlanSize(const LogicalPlan& plan) {
  if (!plan.structural()) return plan.opaque.size() / 8 + 1;
  uint64_t size = 0;
  for (const QueryGraph& g : plan.branches) {
    size += g.vars.size() + g.edges.size();
  }
  return std::max<uint64_t>(size, 1);
}

/// Sum of per-variable candidate-set sizes across all branches, times
/// `per_item` — the shape of every label-index-driven engine's cost.
uint64_t CandidateCost(const LogicalPlan& plan, const DocStats& stats,
                       uint64_t per_item) {
  uint64_t total = 0;
  for (const QueryGraph& g : plan.branches) {
    for (const IrVar& var : g.vars) {
      total = SatAdd(total, SatMul(stats.VarCandidates(var), per_item));
    }
    // Each extra branch re-runs the engine; charge its edges too.
    total = SatAdd(total, g.edges.size());
  }
  return std::max<uint64_t>(total, 1);
}

}  // namespace

const char* EngineName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kXPathSetAtATime:
      return "xpath.set_at_a_time";
    case EngineKind::kXPathNaive:
      return "xpath.naive";
    case EngineKind::kXPathStream:
      return "xpath.stream";
    case EngineKind::kTwigStack:
      return "cq.twigstack";
    case EngineKind::kStructuralJoins:
      return "cq.structural_joins";
    case EngineKind::kYannakakis:
      return "cq.yannakakis";
    case EngineKind::kDichotomy:
      return "cq.dichotomy";
    case EngineKind::kDatalogTmnf:
      return "datalog.tmnf";
    case EngineKind::kFoCorollary52:
      return "fo.corollary52";
    case EngineKind::kFoNaive:
      return "fo.naive";
  }
  return "unknown";
}

std::optional<EngineKind> ParseEngineName(std::string_view name) {
  if (name == "cq.x_property" || name == "cq.backtracking") {
    return EngineKind::kDichotomy;
  }
  for (int i = 0; i < kNumEngineKinds; ++i) {
    const EngineKind kind = static_cast<EngineKind>(i);
    if (name == EngineName(kind)) return kind;
  }
  return std::nullopt;
}

uint64_t DocStats::LabelFrequency(std::string_view label) const {
  // Items() returns an empty stream for kNullLabel / unknown labels.
  const LabelId id = doc.tree().label_table().Lookup(label);
  return doc.label_index().Items(id).size();
}

uint64_t DocStats::VarCandidates(const IrVar& var) const {
  if (var.labels.empty()) return nodes;
  uint64_t best = nodes;
  for (const std::string& label : var.labels) {
    best = std::min(best, LabelFrequency(label));
  }
  return best;
}

uint64_t EstimateCost(EngineKind kind, const LogicalPlan& plan,
                      const DocStats& stats) {
  const uint64_t n = stats.nodes;
  const uint64_t size = PlanSize(plan);
  switch (kind) {
    case EngineKind::kXPathSetAtATime:
      // |Q| * (n + 1), the set-at-a-time bound, with |Q| the IR's size.
      return SatMul(size, SatAdd(n, 1));
    case EngineKind::kXPathNaive:
      // Node-at-a-time recursion touches O(n) per context node.
      return SatMul(size, SatMul(n, n));
    case EngineKind::kXPathStream:
      // One SAX pass; the constant covers per-event transducer work.
      return std::max<uint64_t>(SatMul(6, n), 1);
    case EngineKind::kTwigStack:
      // Holistic: linear in the merged label streams.
      return CandidateCost(plan, stats, 4);
    case EngineKind::kStructuralJoins:
      // Binary joins re-scan intermediate results; a bit worse than twig.
      return CandidateCost(plan, stats, 6);
    case EngineKind::kYannakakis:
      return CandidateCost(plan, stats, 4);
    case EngineKind::kDichotomy:
      // Boolean arc-consistency over candidate sets (X-property path).
      return CandidateCost(plan, stats, 3);
    case EngineKind::kDatalogTmnf:
      // TMNF fixpoint: rules * nodes, two passes amortized.
      return SatMul(size, SatMul(n, 2));
    case EngineKind::kFoCorollary52:
      // Corollary 5.2 pipeline is linear in |formula| * n after rewriting.
      return SatMul(size, SatMul(n, 2));
    case EngineKind::kFoNaive: {
      // n^k quantifier nesting — saturates quickly, as it should.
      uint64_t vars = 0;
      for (const QueryGraph& g : plan.branches) vars += g.vars.size();
      if (!plan.structural()) vars = size;
      uint64_t cost = 1;
      for (uint64_t i = 0; i < std::max<uint64_t>(vars, 1); ++i) {
        cost = SatMul(cost, std::max<uint64_t>(n, 2));
      }
      return cost;
    }
  }
  return UINT64_MAX;
}

}  // namespace plan
}  // namespace treeq
