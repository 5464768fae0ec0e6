#ifndef TREEQ_PLAN_ROUTE_H_
#define TREEQ_PLAN_ROUTE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "plan/cost.h"

/// \file route.h
/// The engine router: the one place that decides how a plan executes.
/// Given a logical plan, the engines that can answer it (computed at
/// compile time by engine/plan.cc), the document's statistics and the
/// request's facts (RouteFacts), Route() returns the engine and whether
/// the run is a budget degradation.
///
///   - Unbounded requests score every eligible engine with EstimateCost
///     and pick the cheapest, with a mild thumb on the scale for the
///     query's native engine, so ties and near-ties keep the historically
///     expected pipeline.
///   - Under a visit budget the candidates are the native engine, plus
///     xpath.stream when the request allows degradation and the plan is
///     stream-capable. Stream wins iff the native visit bound exceeds the
///     visits left; the run is then flagged degraded.
///   - Either way, a chosen score at most kInlineCost marks the run
///     inline: the Executor evaluates it on the submitting thread.
///
/// Metrics: every budget or cost decision bumps plan.route.decisions and a
/// per-engine plan.route.<engine> counter, and records the decision
/// latency in the plan.cost_ns histogram. Forced routes bump
/// plan.route.forced; the plan.route.decide fault point (unbounded,
/// unforced requests only) falls back to the native engine and bumps
/// plan.route.fallbacks.

namespace treeq {
namespace plan {

/// One scored candidate.
struct RouteCandidate {
  EngineKind kind = EngineKind::kXPathSetAtATime;
  uint64_t cost = 0;
  bool native = false;
};

/// What the router needs to know about one execution beyond the plan and
/// the document.
struct RouteFacts {
  /// Visits left under the request's budget; nullopt when unbounded.
  std::optional<uint64_t> remaining_visits;
  /// The request accepts the streaming fallback when over budget.
  bool allow_degraded = false;
  /// The native evaluator's visit bound |Q| * (n + 1), |Q| the size of the
  /// source AST.
  uint64_t native_bound = 0;
  /// Pins the engine (must be eligible); the router then only scores it.
  std::optional<EngineKind> forced;
};

/// The routed score at or below which a request runs on the thread that
/// submits it (RouteDecision::run_inline): queuing it to a worker would
/// cost more than evaluating it. A score is a cost, not a time, so the
/// threshold is the measured hand-off cost divided by the measured ns per
/// score unit (4-vCPU Xeon VM, g++ 12 -O2; EXPERIMENTS.md H1):
///   - hand-off: 21 to 31 us of serving CPU per request. The mean
///     perfbench eval_mix request fell from 79 to 48 us of CPU when every
///     request ran inline, and from 73 to 55 us when the 39 of 48 (class,
///     document) pairs at or below this threshold did;
///   - ns per unit: 2.6 to 3.0, the summed median run time over the summed
///     routed score of the eight eval_mix classes on catalogs of 660 to
///     2,740 nodes (one class alone reads 0.2 to 25).
/// 21-31 us / 2.6-3.0 ns is 7,000 to 11,900 units; the constant is a round
/// value inside that range. Anything scored above it (naive FO, large
/// documents) still queues, so a long run stays asynchronous and
/// cancellable.
inline constexpr uint64_t kInlineCost = 10'000;

/// The router's verdict for one execution.
struct RouteDecision {
  EngineKind chosen = EngineKind::kXPathSetAtATime;
  /// The chosen engine's score, as ScoreCandidates ranks it.
  uint64_t cost = 0;
  /// Budget degradation to the streaming fallback.
  bool degraded = false;
  /// `cost` <= kInlineCost: the Executor runs the request on the
  /// submitting thread instead of handing it to a worker.
  bool run_inline = false;
  /// One-line human rationale, e.g.
  /// "cq.twigstack cost=52 (native xpath.set_at_a_time cost=804)".
  /// Empty on the fault-injected fallback.
  std::string rationale;
};

/// Scores `eligible` (must contain `native`) against `stats`, cheapest
/// first; the native engine wins ties. The native engine's score gets a
/// 20% discount: it is the only engine whose constants we trust from the
/// source language's own tests, so the router only defects from it for a
/// predicted win, never on noise. Bumps no counters.
std::vector<RouteCandidate> ScoreCandidates(
    const LogicalPlan& plan, const std::vector<EngineKind>& eligible,
    EngineKind native, const DocStats& stats);

/// Decides how one execution runs (see the file comment).
RouteDecision Route(const LogicalPlan& plan,
                    const std::vector<EngineKind>& eligible,
                    EngineKind native, const DocStats& stats,
                    const RouteFacts& facts);

}  // namespace plan
}  // namespace treeq

#endif  // TREEQ_PLAN_ROUTE_H_
