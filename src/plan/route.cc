#include "plan/route.h"

#include <algorithm>
#include <chrono>

#include "fault/fault.h"
#include "obs/obs.h"

namespace treeq {
namespace plan {

namespace {

/// TREEQ_OBS_INC caches one counter per macro site, so each engine's
/// route counter needs its own literal.
void CountRouteEngine(EngineKind kind) {
  switch (kind) {
    case EngineKind::kXPathSetAtATime:
      TREEQ_OBS_INC("plan.route.xpath_set_at_a_time");
      break;
    case EngineKind::kXPathNaive:
      TREEQ_OBS_INC("plan.route.xpath_naive");
      break;
    case EngineKind::kXPathStream:
      TREEQ_OBS_INC("plan.route.xpath_stream");
      break;
    case EngineKind::kTwigStack:
      TREEQ_OBS_INC("plan.route.cq_twigstack");
      break;
    case EngineKind::kStructuralJoins:
      TREEQ_OBS_INC("plan.route.cq_structural_joins");
      break;
    case EngineKind::kYannakakis:
      TREEQ_OBS_INC("plan.route.cq_yannakakis");
      break;
    case EngineKind::kDichotomy:
      TREEQ_OBS_INC("plan.route.cq_dichotomy");
      break;
    case EngineKind::kDatalogTmnf:
      TREEQ_OBS_INC("plan.route.datalog_tmnf");
      break;
    case EngineKind::kFoCorollary52:
      TREEQ_OBS_INC("plan.route.fo_corollary52");
      break;
    case EngineKind::kFoNaive:
      TREEQ_OBS_INC("plan.route.fo_naive");
      break;
  }
}

/// The router's score for one engine: EstimateCost, with the 20% native
/// discount (defect only for a predicted win, not noise).
uint64_t Score(EngineKind kind, EngineKind native, const LogicalPlan& plan,
               const DocStats& stats) {
  uint64_t cost = EstimateCost(kind, plan, stats);
  if (kind == native) cost -= cost / 5;
  return cost;
}

}  // namespace

std::vector<RouteCandidate> ScoreCandidates(
    const LogicalPlan& plan, const std::vector<EngineKind>& eligible,
    EngineKind native, const DocStats& stats) {
  std::vector<RouteCandidate> candidates;
  candidates.reserve(eligible.size());
  for (EngineKind kind : eligible) {
    candidates.push_back({kind, Score(kind, native, plan, stats),
                          kind == native});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const RouteCandidate& a, const RouteCandidate& b) {
                     if (a.cost != b.cost) return a.cost < b.cost;
                     return a.native && !b.native;  // native wins ties
                   });
  return candidates;
}

RouteDecision Route(const LogicalPlan& plan,
                    const std::vector<EngineKind>& eligible,
                    EngineKind native, const DocStats& stats,
                    const RouteFacts& facts) {
  RouteDecision decision;
  decision.chosen = native;
  if (facts.forced.has_value()) {
    TREEQ_OBS_INC("plan.route.forced");
    decision.chosen = *facts.forced;
    decision.cost = Score(decision.chosen, native, plan, stats);
    decision.rationale = std::string("forced: ") + EngineName(decision.chosen);
  } else if (!facts.remaining_visits.has_value() &&
             TREEQ_FAULT_FIRED("plan.route.decide")) {
    // Injected router failure: fall back to the native engine, the one
    // route that needs no routing decision.
    TREEQ_OBS_INC("plan.route.fallbacks");
    decision.cost = Score(native, native, plan, stats);
  } else {
    const auto start = std::chrono::steady_clock::now();
    std::string why;
    if (facts.remaining_visits.has_value()) {
      // Under a budget only the native engine's charge schedule is
      // trusted; the streaming fallback takes over when the native bound
      // exceeds the visits left.
      const uint64_t left = *facts.remaining_visits;
      decision.degraded = facts.allow_degraded && facts.native_bound > left &&
                          std::find(eligible.begin(), eligible.end(),
                                    EngineKind::kXPathStream) !=
                              eligible.end();
      if (decision.degraded) decision.chosen = EngineKind::kXPathStream;
      decision.cost = Score(decision.chosen, native, plan, stats);
      why = " (visit bound " + std::to_string(facts.native_bound) +
            (facts.native_bound > left ? " > " : " <= ") +
            std::to_string(left) + " left)";
    } else {
      const RouteCandidate best =
          ScoreCandidates(plan, eligible, native, stats)[0];
      decision.chosen = best.kind;
      decision.cost = best.cost;
      if (decision.chosen != native) {
        why = std::string(" (native ") + EngineName(native) + " cost=" +
              std::to_string(Score(native, native, plan, stats)) + ")";
      }
    }
    decision.rationale = EngineName(decision.chosen);
    decision.rationale += " cost=" + std::to_string(decision.cost) + why;
    TREEQ_OBS_INC("plan.route.decisions");
    CountRouteEngine(decision.chosen);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    TREEQ_OBS_HISTOGRAM(
        "plan.cost_ns",
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
  }
  decision.run_inline = decision.cost <= kInlineCost;
  return decision;
}

}  // namespace plan
}  // namespace treeq
