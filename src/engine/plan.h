#ifndef TREEQ_ENGINE_PLAN_H_
#define TREEQ_ENGINE_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "cq/dichotomy.h"
#include "cq/twig_join.h"
#include "engine/query.h"
#include "plan/cost.h"
#include "plan/ir.h"
#include "plan/route.h"
#include "query/parse.h"
#include "stream/stream_eval.h"
#include "tree/axes.h"
#include "tree/document.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file plan.h
/// A `Plan` is a query parsed, validated, and routed once, then executable
/// any number of times against any Document — the parse-once/run-many half
/// of the serving story (the PlanCache in plan_cache.h is the other half).
///
/// Compile() front-loads everything that depends only on the query text:
///   - parsing (query/parse.h, all errors kParseError + byte offset);
///   - lowering into the unified logical IR (plan/ir.h) and
///     canonicalization (plan/canonicalize.h), giving the plan a stable
///     128-bit identity shared by semantically identical queries across
///     languages — PlanCache and ResultCache key on it;
///   - CQ: dichotomy classification (Theorem 6.8) and shape checks, so the
///     native route goes straight to X-property or Yannakakis evaluation;
///   - FO: sentence check and positivity, so the native route is the
///     Corollary 5.2 pipeline or the naive oracle without re-walking the
///     AST;
///   - eligibility: the list of physical engines (plan/cost.h) that can
///     answer this plan, native ones plus every engine the IR's structural
///     form converts to;
///   - |Q|, the source AST size behind the native visit bound |Q|*(n+1).
///
/// Execute() has one path: the router (plan/route.h, through Route())
/// decides the engine and budget degradation from the document and the
/// request's facts — or honours ExecuteOptions::force_route, which pins an
/// engine for tests and experiments — and the chosen engine runs. A caller
/// that routed already (the Executor routes once, at Submit) passes its
/// decision in ExecuteOptions::route, and Execute scores nothing.
///
/// A compiled Plan is immutable; Execute is const and thread-safe, so one
/// PlanPtr is shared freely across the Executor's workers.

namespace treeq {
namespace engine {

class Plan;

/// Shared read-only handle to a compiled plan.
using PlanPtr = std::shared_ptr<const Plan>;

/// Per-execution knobs for Plan::Execute. Default-constructed options run
/// the routed engine without degradation.
struct ExecuteOptions {
  /// Graceful degradation under a visit budget: a stream-capable XPath
  /// plan whose native visit bound exceeds the visits left runs on the
  /// streaming evaluator instead, flagged `degraded`.
  bool allow_degraded = false;

  /// Cross-query axis-image memo (tree/axes.h; in practice a
  /// cache::EvalCache::Memo bound to the document's epoch). When set, the
  /// set-at-a-time XPath route and cq.yannakakis's semijoin sweeps consult
  /// it per axis step and store fresh images back — results stay
  /// bit-identical; XPath memo hits charge the cheap lookup instead of the
  /// saved kernel work, and CQ image steps charge 1 + n/64 either way.
  AxisImageMemo* axis_memo = nullptr;

  /// When non-empty, bypasses the router and runs this engine (a
  /// plan::EngineName, e.g. "cq.twigstack"). InvalidArgument for unknown
  /// names; Unsupported when the engine is not in EligibleEngines().
  /// Tests use it to prove every eligible engine answers identically.
  std::string force_route;

  /// A decision Route() already made for this plan, document and context.
  /// When set, Execute runs it as decided and does not route again;
  /// `force_route` and `allow_degraded` are then not consulted. Borrowed;
  /// must outlive the call.
  const plan::RouteDecision* route = nullptr;
};

class Plan {
 public:
  /// Parses and validates `text` once. On success the plan is ready for
  /// concurrent Execute() calls. (language, text) is the plan's identity.
  static Result<PlanPtr> Compile(Language language, std::string_view text);

  Language language() const { return query_.language; }
  const std::string& text() const { return text_; }

  /// Evaluates the plan on `doc` with the engine plan::Route picks (or
  /// `options.force_route`); the result names it in QueryResult::engine
  /// with the router's rationale and predicted cost. Thread-safe; touches
  /// no mutable plan state.
  ///
  /// Every evaluator charge goes to `exec`, so the run aborts with
  /// DeadlineExceeded / ResourceExhausted / Cancelled as soon as a limit
  /// trips (util/exec_context.h); with `options.allow_degraded`, an XPath
  /// plan whose visit bound exceeds the visits left falls back to the
  /// O(depth * |Q|)-memory streaming evaluator over the forward rewrite
  /// computed at Compile() time, flagged `degraded`.
  Result<QueryResult> Execute(
      const Document& doc, const ExecContext& exec = ExecContext::Unbounded(),
      const ExecuteOptions& options = ExecuteOptions()) const;

  /// The router's decision (plan/route.h) for one execution on `doc`: the
  /// engine, a budget degradation against the visits `exec` has left
  /// (when `allow_degraded`), and whether the run is cheap enough to run
  /// inline. `forced` pins the engine and must be eligible. Bumps the
  /// plan.route.* counters, so each execution should route exactly once.
  plan::RouteDecision Route(
      const Document& doc, const ExecContext& exec, bool allow_degraded,
      std::optional<plan::EngineKind> forced = std::nullopt) const;

  /// Wall time Compile() spent on this plan (parse + validate + classify +
  /// stream-rewrite). A cache-hit request did not pay it; per-query
  /// profiles report compile_ns() for cold requests and 0 for hits.
  uint64_t compile_ns() const { return compile_ns_; }

  /// One-line compile-time classification: why the native route is what
  /// it is (dichotomy class, FO positivity, stream capability, and the
  /// |Q|*(|D|+1) visit-estimate formula). Built once at Compile(); cheap
  /// to copy into profiles and the slow-query log.
  const std::string& Explain() const { return explain_; }

  /// Compile-time routing facts (for tests, logs, and the bench).
  /// CQ only: the Theorem 6.8 signature class.
  cq::SignatureClass cq_class() const { return cq_class_; }
  /// FO only: whether the native route is the Corollary 5.2 pipeline.
  bool fo_positive() const { return fo_positive_; }
  /// XPath only: whether the streaming fallback is available (the query is
  /// conjunctive, rewrites to a forward query, and supports selection).
  bool stream_capable() const { return stream_program_.has_value(); }

  /// The canonical logical plan (plan/ir.h) this query lowered to, and its
  /// stable 128-bit identity. Dialect-insensitive: semantically identical
  /// queries in any language share the hash.
  const plan::LogicalPlan& ir() const { return ir_; }
  plan::CanonicalHash canonical_hash() const { return canonical_hash_; }

  /// Every physical engine that can answer this plan, native first. Valid
  /// values for ExecuteOptions::force_route (via plan::EngineName).
  const std::vector<plan::EngineKind>& EligibleEngines() const {
    return eligible_;
  }

  /// The engine the query's own language pipeline uses — the router's
  /// fallback and the recipient of its native discount.
  plan::EngineKind NativeEngine() const;

  /// Runtime routing table for `doc`: every eligible engine with the score
  /// the router ranks it by (plan::ScoreCandidates), cheapest first, the
  /// native engine starred. Executes nothing and bumps no route counters.
  std::string ExplainRouting(const Document& doc) const;

 private:
  Plan() = default;

  /// Lowers query_ into ir_, canonicalizes, and computes eligible_ plus
  /// the cross-engine forms (twig patterns, CQ branches, FO sentences,
  /// datalog program). Called once at the end of Compile().
  void BuildLogicalPlan();

  /// Runs one specific engine (`kind` must be eligible).
  Result<QueryResult> ExecuteEngine(plan::EngineKind kind,
                                    const Document& doc,
                                    const ExecContext& exec,
                                    const ExecuteOptions& options) const;

  std::string text_;
  ParsedQuery query_;
  std::string explain_;
  uint64_t compile_ns_ = 0;
  /// |Q| of the native visit bound |Q| * (n + 1), from the source AST.
  uint64_t query_size_ = 1;
  cq::SignatureClass cq_class_ = cq::SignatureClass::kTau1;
  bool cq_boolean_ = false;
  bool fo_positive_ = false;
  /// The streaming fallback compiled from the XPath query's forward
  /// rewrite; empty when the query is outside the streamable fragment.
  std::optional<stream::StreamProgram> stream_program_;

  /// Canonical logical IR + identity (see ir()).
  plan::LogicalPlan ir_;
  plan::CanonicalHash canonical_hash_;
  /// Engines that can answer this plan, native first.
  std::vector<plan::EngineKind> eligible_;
  /// Cross-engine forms synthesized from the canonical IR (empty/null when
  /// the matching engine is not eligible). One entry per IR branch.
  std::vector<cq::ConjunctiveQuery> cq_branches_;
  std::vector<cq::TwigPattern> twig_branches_;
  std::vector<std::vector<int>> twig_out_cols_;
  std::vector<std::unique_ptr<fo::Formula>> fo_branches_;
  /// XPath only: the TMNF translation (xpath/to_datalog.h), when it exists.
  std::unique_ptr<datalog::Program> datalog_form_;
};

}  // namespace engine
}  // namespace treeq

#endif  // TREEQ_ENGINE_PLAN_H_
