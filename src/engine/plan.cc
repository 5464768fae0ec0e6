#include "engine/plan.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "cq/enumerate.h"
#include "datalog/evaluator.h"
#include "fo/corollary52.h"
#include "fo/evaluator.h"
#include "obs/obs.h"
#include "plan/canonicalize.h"
#include "plan/lower.h"
#include "plan/route.h"
#include "stream/stream_eval.h"
#include "xpath/evaluator.h"
#include "xpath/naive_evaluator.h"
#include "xpath/to_datalog.h"
#include "xpath/to_forward.h"

namespace treeq {
namespace engine {

namespace {

/// The |Q| factor of the native visit bound |Q| * (n + 1), per language.
uint64_t QuerySize(const ParsedQuery& query) {
  switch (query.language) {
    case Language::kXPath:
      return static_cast<uint64_t>(xpath::PathSize(*query.xpath));
    case Language::kCq:
      return static_cast<uint64_t>(query.cq->num_vars());
    case Language::kDatalog:
      return query.datalog->rules().size();
    case Language::kFo:
      return static_cast<uint64_t>(fo::Size(*query.fo));
  }
  return 1;
}

/// TREEQ_OBS_INC caches one counter per macro site; each language's
/// lowering counter needs its own literal.
void CountLowering(Language language, bool structural) {
  switch (language) {
    case Language::kXPath:
      TREEQ_OBS_INC("plan.lower.xpath");
      break;
    case Language::kCq:
      TREEQ_OBS_INC("plan.lower.cq");
      break;
    case Language::kDatalog:
      TREEQ_OBS_INC("plan.lower.datalog");
      break;
    case Language::kFo:
      TREEQ_OBS_INC("plan.lower.fo");
      break;
  }
  if (!structural) TREEQ_OBS_INC("plan.lower.opaque");
}

}  // namespace

Result<PlanPtr> Plan::Compile(Language language, std::string_view text) {
  TREEQ_OBS_SPAN("engine.plan.compile");
  TREEQ_OBS_INC("engine.plan.compiles");
  const auto compile_start = std::chrono::steady_clock::now();
  TREEQ_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(language, text));

  auto plan = std::shared_ptr<Plan>(new Plan());
  plan->text_ = std::string(text);
  plan->query_ = std::move(parsed);
  plan->query_size_ = QuerySize(plan->query_);

  switch (language) {
    case Language::kXPath: {
      // Compile the streaming fallback once, while we are still on the
      // compile path: forward rewrite (Section 5) + stream program with
      // selection support. Failures just mean "not stream-capable".
      Result<std::unique_ptr<xpath::PathExpr>> forward =
          xpath::ToForwardXPath(*plan->query_.xpath);
      if (forward.ok()) {
        Result<stream::StreamProgram> program =
            stream::StreamProgram::Compile(*forward.value());
        if (program.ok() && program.value().selection_supported()) {
          plan->stream_program_ = std::move(program).value();
        }
      }
      break;
    }
    case Language::kDatalog:
      break;  // the parsers validate fully
    case Language::kCq: {
      const cq::ConjunctiveQuery& q = *plan->query_.cq;
      plan->cq_boolean_ = q.IsBoolean();
      cq::ConjunctiveQuery normalized = q;
      normalized.NormalizeInverseAxes();
      plan->cq_class_ = cq::ClassifySignature(normalized.AxesUsed());
      if (!plan->cq_boolean_ && !q.IsTreeShaped()) {
        return Status::Unsupported(
            "k-ary CQ plans require a tree-shaped query graph "
            "(acyclic evaluation, Proposition 6.10): " +
            q.ToString());
      }
      break;
    }
    case Language::kFo: {
      if (!fo::FreeVariables(*plan->query_.fo).empty()) {
        return Status::Unsupported(
            "FO plans must be sentences (no free variables): " +
            fo::ToString(*plan->query_.fo));
      }
      plan->fo_positive_ = fo::IsPositive(*plan->query_.fo);
      break;
    }
  }

  plan->BuildLogicalPlan();

  // The Explain() line and compile_ns are routing metadata computed once
  // here so per-query profiles copy a finished string instead of
  // re-deriving the classification on the serving path.
  switch (language) {
    case Language::kXPath:
      plan->explain_ = "xpath: set-at-a-time evaluator";
      plan->explain_ += plan->stream_program_.has_value()
                            ? "; stream fallback available (forward rewrite)"
                            : "; no stream fallback";
      break;
    case Language::kDatalog:
      plan->explain_ = "datalog: TMNF grounding + fixpoint";
      break;
    case Language::kCq:
      plan->explain_ = plan->cq_boolean_ ? "cq boolean: class "
                                         : "cq k-ary: class ";
      plan->explain_ += cq::SignatureClassName(plan->cq_class_);
      if (!plan->cq_boolean_) {
        plan->explain_ += " -> acyclic enumeration (Yannakakis)";
      } else if (plan->cq_class_ == cq::SignatureClass::kNpHard) {
        plan->explain_ += " -> backtracking search";
      } else {
        plan->explain_ += " -> X-property evaluation";
      }
      break;
    case Language::kFo:
      plan->explain_ = plan->fo_positive_
                           ? "fo: positive sentence -> Corollary 5.2 pipeline"
                           : "fo: sentence with negation -> naive model "
                             "checking";
      break;
  }
  plan->explain_ += "; est. visits = |Q|*(|D|+1), |Q|=" +
                    std::to_string(plan->query_size_);
  plan->explain_ += " | ir: " + plan->ir_.Render();
  plan->explain_ += " hash=" + plan->canonical_hash_.ToHex();
  plan->explain_ += " | routes:";
  for (plan::EngineKind kind : plan->eligible_) {
    plan->explain_ += " ";
    plan->explain_ += plan::EngineName(kind);
  }
  plan->compile_ns_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - compile_start)
          .count());
  return PlanPtr(std::move(plan));
}

void Plan::BuildLogicalPlan() {
  switch (query_.language) {
    case Language::kXPath:
      ir_ = plan::LowerXPath(*query_.xpath);
      break;
    case Language::kCq:
      ir_ = plan::LowerCq(*query_.cq);
      break;
    case Language::kDatalog:
      ir_ = plan::LowerDatalog(*query_.datalog);
      break;
    case Language::kFo:
      ir_ = plan::LowerFo(*query_.fo);
      break;
  }
  canonical_hash_ = plan::Canonicalize(&ir_);
  CountLowering(query_.language, ir_.structural());

  auto add = [this](plan::EngineKind kind) {
    if (std::find(eligible_.begin(), eligible_.end(), kind) ==
        eligible_.end()) {
      eligible_.push_back(kind);
    }
  };
  add(NativeEngine());

  // Language-native alternates: engines that evaluate the original AST.
  if (query_.language == Language::kXPath) {
    add(plan::EngineKind::kXPathNaive);
    if (stream_program_.has_value()) add(plan::EngineKind::kXPathStream);
    Result<datalog::Program> translated =
        xpath::XPathToDatalog(*query_.xpath);
    if (translated.ok()) {
      datalog_form_ = std::make_unique<datalog::Program>(
          std::move(translated).value());
      add(plan::EngineKind::kDatalogTmnf);
    }
  }
  if (query_.language == Language::kFo && fo_positive_) {
    add(plan::EngineKind::kFoNaive);
  }

  // Cross-engine eligibility comes from the canonical structural IR. An
  // anchored branch (absolute XPath) has no CQ/twig/FO equivalent — the
  // root constraint is not an axis atom — so it stays with its native
  // engines.
  if (!ir_.structural()) return;
  for (const plan::QueryGraph& branch : ir_.branches) {
    if (branch.anchored) return;
  }

  std::vector<cq::ConjunctiveQuery> cqs;
  bool all_cq = true;
  for (const plan::QueryGraph& branch : ir_.branches) {
    cq::ConjunctiveQuery q;
    if (!plan::GraphToCq(branch, &q) || !q.IsTreeShaped()) {
      all_cq = false;
      break;
    }
    cqs.push_back(std::move(q));
  }
  if (all_cq) {
    cq_branches_ = std::move(cqs);
    if (ir_.arity == 0) add(plan::EngineKind::kDichotomy);
    add(plan::EngineKind::kYannakakis);
  }

  if (ir_.arity >= 1) {
    std::vector<cq::TwigPattern> twigs;
    std::vector<std::vector<int>> cols;
    bool all_twig = true;
    for (const plan::QueryGraph& branch : ir_.branches) {
      cq::TwigPattern pattern;
      std::vector<int> out_cols;
      if (!plan::GraphToTwig(branch, &pattern, &out_cols)) {
        all_twig = false;
        break;
      }
      twigs.push_back(std::move(pattern));
      cols.push_back(std::move(out_cols));
    }
    if (all_twig) {
      twig_branches_ = std::move(twigs);
      twig_out_cols_ = std::move(cols);
      add(plan::EngineKind::kTwigStack);
      add(plan::EngineKind::kStructuralJoins);
    }
  }

  if (ir_.arity == 0) {
    std::vector<std::unique_ptr<fo::Formula>> sentences;
    bool all_fo = true;
    for (const plan::QueryGraph& branch : ir_.branches) {
      std::unique_ptr<fo::Formula> sentence = plan::GraphToFo(branch);
      if (sentence == nullptr) {
        all_fo = false;
        break;
      }
      sentences.push_back(std::move(sentence));
    }
    if (all_fo) {
      fo_branches_ = std::move(sentences);
      add(plan::EngineKind::kFoCorollary52);
      add(plan::EngineKind::kFoNaive);
    }
  }
}

plan::EngineKind Plan::NativeEngine() const {
  switch (query_.language) {
    case Language::kXPath:
      return plan::EngineKind::kXPathSetAtATime;
    case Language::kDatalog:
      return plan::EngineKind::kDatalogTmnf;
    case Language::kCq:
      return cq_boolean_ ? plan::EngineKind::kDichotomy
                         : plan::EngineKind::kYannakakis;
    case Language::kFo:
      return fo_positive_ ? plan::EngineKind::kFoCorollary52
                          : plan::EngineKind::kFoNaive;
  }
  return plan::EngineKind::kXPathSetAtATime;
}

std::string Plan::ExplainRouting(const Document& doc) const {
  const plan::DocStats stats = plan::DocStats::For(doc);
  std::string out = "routing n=" + std::to_string(stats.nodes) + ":";
  for (const plan::RouteCandidate& c :
       plan::ScoreCandidates(ir_, eligible_, NativeEngine(), stats)) {
    out += " ";
    out += plan::EngineName(c.kind);
    out += '=';
    out += std::to_string(c.cost);
    if (c.native) out += "*";
  }
  return out;
}

Result<QueryResult> Plan::Execute(const Document& doc,
                                  const ExecContext& exec,
                                  const ExecuteOptions& options) const {
  TREEQ_OBS_SPAN("engine.plan.run");
  TREEQ_OBS_INC("engine.plan.runs");
  // A request that spent its whole queue wait past the deadline should not
  // start evaluating at all.
  TREEQ_RETURN_IF_ERROR(exec.CheckNow());

  plan::RouteDecision routed;
  const plan::RouteDecision* decision = options.route;
  if (decision == nullptr) {
    std::optional<plan::EngineKind> forced;
    if (!options.force_route.empty()) {
      forced = plan::ParseEngineName(options.force_route);
      if (!forced.has_value()) {
        return Status::InvalidArgument("unknown engine name: " +
                                       options.force_route);
      }
      if (std::find(eligible_.begin(), eligible_.end(), *forced) ==
          eligible_.end()) {
        return Status::Unsupported("engine " + options.force_route +
                                   " is not eligible for this plan");
      }
    }
    routed = Route(doc, exec, options.allow_degraded, forced);
    decision = &routed;
  }
  if (decision->degraded) TREEQ_OBS_INC("engine.degraded");
  TREEQ_ASSIGN_OR_RETURN(QueryResult out,
                         ExecuteEngine(decision->chosen, doc, exec, options));
  out.degraded = decision->degraded;
  out.route_rationale = decision->rationale;
  out.route_cost = decision->cost;
  return out;
}

plan::RouteDecision Plan::Route(const Document& doc, const ExecContext& exec,
                                bool allow_degraded,
                                std::optional<plan::EngineKind> forced) const {
  plan::RouteFacts facts;
  facts.forced = forced;
  const uint64_t visit_budget = exec.limits().visit_budget;
  if (visit_budget != UINT64_MAX) {
    const uint64_t used = exec.visits_used();
    facts.remaining_visits = visit_budget > used ? visit_budget - used : 0;
  }
  facts.allow_degraded = allow_degraded;
  facts.native_bound =
      query_size_ * (static_cast<uint64_t>(doc.num_nodes()) + 1);
  return plan::Route(ir_, eligible_, NativeEngine(), plan::DocStats::For(doc),
                     facts);
}

Result<QueryResult> Plan::ExecuteEngine(plan::EngineKind kind,
                                        const Document& doc,
                                        const ExecContext& exec,
                                        const ExecuteOptions& options) const {
  QueryResult out;
  out.language = query_.language;
  out.engine = plan::EngineName(kind);
  switch (kind) {
    case plan::EngineKind::kXPathSetAtATime: {
      TREEQ_ASSIGN_OR_RETURN(
          NodeSet nodes, xpath::EvalQueryFromRoot(doc, *query_.xpath, exec,
                                                  options.axis_memo));
      out.value.emplace<NodeSet>(std::move(nodes));
      return out;
    }
    case plan::EngineKind::kXPathNaive: {
      TREEQ_ASSIGN_OR_RETURN(
          NodeSet nodes,
          xpath::NaiveEvalPath(doc, *query_.xpath, doc.tree().root(),
                               /*stats=*/nullptr, exec));
      out.value.emplace<NodeSet>(std::move(nodes));
      return out;
    }
    case plan::EngineKind::kXPathStream: {
      // Exact either way; Execute flags a budget degradation, which keeps
      // the result out of the result cache.
      TREEQ_ASSIGN_OR_RETURN(
          NodeSet nodes,
          stream::StreamMatcher::SelectFromTree(*stream_program_, doc.tree(),
                                                /*stats=*/nullptr, exec));
      out.value.emplace<NodeSet>(std::move(nodes));
      return out;
    }
    case plan::EngineKind::kTwigStack:
    case plan::EngineKind::kStructuralJoins: {
      NodeSet nodes(doc.num_nodes());
      TupleSet tuples;
      for (size_t b = 0; b < twig_branches_.size(); ++b) {
        Result<TupleSet> matches =
            kind == plan::EngineKind::kTwigStack
                ? cq::TwigStackJoin(twig_branches_[b], doc,
                                    /*stats=*/nullptr, exec)
                : cq::TwigByStructuralJoins(twig_branches_[b], doc,
                                            /*stats=*/nullptr, exec);
        TREEQ_RETURN_IF_ERROR(matches.status());
        const std::vector<int>& cols = twig_out_cols_[b];
        for (const std::vector<NodeId>& match : matches.value()) {
          if (ir_.arity == 1) {
            nodes.Insert(match[static_cast<size_t>(cols[0])]);
          } else {
            std::vector<NodeId> tuple;
            tuple.reserve(cols.size());
            for (int col : cols) {
              tuple.push_back(match[static_cast<size_t>(col)]);
            }
            tuples.push_back(std::move(tuple));
          }
        }
      }
      if (ir_.arity == 1) {
        out.value.emplace<NodeSet>(std::move(nodes));
      } else {
        // Projected matches: sort and dedupe into the canonical order.
        cq::CanonicalizeTuples(&tuples);
        out.value.emplace<TupleSet>(std::move(tuples));
      }
      return out;
    }
    case plan::EngineKind::kYannakakis: {
      // The full reducer leaves globally consistent candidate sets, so a
      // Boolean answer is its satisfiability and a unary answer is the
      // head variable's set; only k >= 2 enumerates. A k-ary CQ plan runs
      // its own query, everything else the canonical branches.
      NodeSet nodes(doc.num_nodes());
      TupleSet tuples;
      bool merged = false;  // tuples holds the union of several answers
      bool answer = false;
      auto evaluate = [&](const cq::ConjunctiveQuery& query) -> Status {
        if (ir_.arity == 0) {
          TREEQ_ASSIGN_OR_RETURN(
              answer, cq::EvaluateBooleanAcyclic(query, doc, exec,
                                                 options.axis_memo));
        } else if (ir_.arity == 1) {
          TREEQ_ASSIGN_OR_RETURN(
              NodeSet selected,
              cq::EvaluateUnaryAcyclic(query, doc, exec, options.axis_memo));
          nodes.UnionWith(selected);
        } else {
          TREEQ_ASSIGN_OR_RETURN(
              TupleSet matches,
              cq::EvaluateAcyclic(query, doc, exec, options.axis_memo));
          if (tuples.empty()) {
            tuples = std::move(matches);
          } else {
            merged = merged || !matches.empty();
            for (std::vector<NodeId>& t : matches) {
              tuples.push_back(std::move(t));
            }
          }
        }
        return Status::OK();
      };
      if (query_.language == Language::kCq && !cq_boolean_) {
        TREEQ_RETURN_IF_ERROR(evaluate(*query_.cq));
      } else {
        for (const cq::ConjunctiveQuery& branch : cq_branches_) {
          if (answer) break;
          TREEQ_RETURN_IF_ERROR(evaluate(branch));
        }
      }
      if (ir_.arity == 0) {
        out.value.emplace<bool>(answer);
      } else if (ir_.arity == 1) {
        out.value.emplace<NodeSet>(std::move(nodes));
      } else {
        // EvaluateAcyclic returns each answer sorted and deduplicated; only
        // a union of several non-empty branch answers needs it again.
        if (merged) cq::CanonicalizeTuples(&tuples);
        out.value.emplace<TupleSet>(std::move(tuples));
      }
      return out;
    }
    case plan::EngineKind::kDichotomy: {
      if (query_.language == Language::kCq) {
        bool used_tractable_path = false;
        TREEQ_ASSIGN_OR_RETURN(
            bool answer,
            cq::EvaluateBooleanDichotomy(*query_.cq, doc,
                                         &used_tractable_path, exec));
        out.value.emplace<bool>(answer);
        // Report the route the dichotomy actually took, not the prediction.
        out.engine =
            used_tractable_path ? "cq.x_property" : "cq.backtracking";
        return out;
      }
      bool answer = false;
      for (const cq::ConjunctiveQuery& branch : cq_branches_) {
        if (answer) break;
        TREEQ_ASSIGN_OR_RETURN(
            bool branch_answer,
            cq::EvaluateBooleanDichotomy(branch, doc,
                                         /*used_tractable_path=*/nullptr,
                                         exec));
        answer = branch_answer;
      }
      out.value.emplace<bool>(answer);
      return out;
    }
    case plan::EngineKind::kDatalogTmnf: {
      const datalog::Program& program = query_.language == Language::kDatalog
                                            ? *query_.datalog
                                            : *datalog_form_;
      TREEQ_ASSIGN_OR_RETURN(
          NodeSet nodes,
          datalog::EvaluateDatalog(program, doc, /*stats=*/nullptr, exec));
      out.value.emplace<NodeSet>(std::move(nodes));
      return out;
    }
    case plan::EngineKind::kFoCorollary52: {
      if (query_.language == Language::kFo) {
        TREEQ_ASSIGN_OR_RETURN(
            bool answer,
            fo::EvaluateSentencePositive(*query_.fo, doc, /*stats=*/nullptr,
                                         exec));
        out.value.emplace<bool>(answer);
        return out;
      }
      bool answer = false;
      for (const std::unique_ptr<fo::Formula>& sentence : fo_branches_) {
        if (answer) break;
        TREEQ_ASSIGN_OR_RETURN(
            bool branch_answer,
            fo::EvaluateSentencePositive(*sentence, doc, /*stats=*/nullptr,
                                         exec));
        answer = branch_answer;
      }
      out.value.emplace<bool>(answer);
      return out;
    }
    case plan::EngineKind::kFoNaive: {
      if (query_.language == Language::kFo) {
        TREEQ_ASSIGN_OR_RETURN(
            bool answer,
            fo::EvaluateSentenceNaive(*query_.fo, doc, exec));
        out.value.emplace<bool>(answer);
        return out;
      }
      bool answer = false;
      for (const std::unique_ptr<fo::Formula>& sentence : fo_branches_) {
        if (answer) break;
        TREEQ_ASSIGN_OR_RETURN(
            bool branch_answer,
            fo::EvaluateSentenceNaive(*sentence, doc, exec));
        answer = branch_answer;
      }
      out.value.emplace<bool>(answer);
      return out;
    }
  }
  return Status::Internal("plan with invalid engine");
}

}  // namespace engine
}  // namespace treeq
