// Differential tests for the logical plan layer (src/plan/): a corpus of
// queries each expressed in two or more languages must (a) canonicalize
// to identical 128-bit hashes, (b) produce bit-identical QueryResults on
// every document, and (c) produce the same answer under every forced
// route (ExecuteOptions::force_route) the plan declares eligible. The
// cache-sharing acceptance criterion — same-semantics queries in
// different dialects share one PlanCache entry and one ResultCache entry
// — is asserted through the caches' own tallies.
//
// Corpus notes: XPath is root-anchored, so `//a` can never match the
// document root; the faithful CQ/datalog phrasing adds an explicit
// ancestor variable (`Child+(w, x)` with w unconstrained) to assert "x
// has some ancestor" ⇔ "x is not the root". FO participates only at
// arity 0 (sentences).

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "cq/enumerate.h"
#include "plan/cost.h"
#include "tree/generator.h"
#include "util/random.h"

namespace treeq {
namespace engine {
namespace {

DocumentPtr Catalog(int seed = 1, int products = 20) {
  Rng rng(static_cast<uint64_t>(seed));
  CatalogOptions opts;
  opts.num_products = products;
  return MakeDocument(CatalogDocument(&rng, opts));
}

DocumentPtr Random(int seed, int nodes) {
  Rng rng(static_cast<uint64_t>(seed));
  RandomTreeOptions opts;
  opts.num_nodes = nodes;
  return MakeDocument(RandomTree(&rng, opts));
}

struct Dialect {
  Language language;
  const char* text;
};

struct CorpusEntry {
  const char* name;
  std::vector<Dialect> dialects;
};

// Every entry's dialects are semantically identical queries; the first
// dialect is the reference.
const std::vector<CorpusEntry>& Corpus() {
  static const std::vector<CorpusEntry> corpus = {
      {"descendant-chain",
       {{Language::kXPath, "//product//rating5"},
        {Language::kCq,
         "Q(y) :- Child+(w, x), Child+(x, y), Lab_product(x), "
         "Lab_rating5(y)."},
        // Same CQ, renamed variables and shuffled atoms.
        {Language::kCq,
         "Q(b) :- Lab_rating5(b), Child+(a, b), Child+(c, a), "
         "Lab_product(a)."},
        {Language::kDatalog,
         "Q(y) :- Child+(w, x), Child+(x, y), Lab_product(x), "
         "Lab_rating5(y). ?- Q."}}},
      {"child-step",
       {{Language::kXPath, "//product/name"},
        {Language::kCq,
         "Q(n) :- Child+(r, p), Child(p, n), Lab_product(p), Lab_name(n)."},
        {Language::kDatalog,
         "Q(n) :- Child+(r, p), Child(p, n), Lab_product(p), Lab_name(n). "
         "?- Q."}}},
      {"boolean-label",
       {{Language::kFo, "exists x . Lab_name(x)"},
        {Language::kCq, "Q() :- Lab_name(x)."}}},
      {"boolean-desc-pair",
       {{Language::kFo,
         "exists x . exists y . (Child+(x, y) and Lab_product(x) and "
         "Lab_rating5(y))"},
        {Language::kCq,
         "Q() :- Child+(x, y), Lab_product(x), Lab_rating5(y)."}}},
      {"binary-tuples",
       {{Language::kCq,
         "Q(p, r) :- Child+(w, p), Child+(p, r), Lab_product(p), "
         "Lab_review(r)."},
        {Language::kCq,
         "Q(a, b) :- Child+(c, a), Lab_review(b), Child+(a, b), "
         "Lab_product(a)."}}},
      // Every variable labeled: eligible for the twig engines
      // (cq.twigstack, cq.structural_joins) as well as Yannakakis.
      {"labeled-child-pair",
       {{Language::kCq,
         "Q(p, n) :- Child(p, n), Lab_product(p), Lab_name(n)."},
        {Language::kCq,
         "Q(x, y) :- Lab_name(y), Lab_product(x), Child(x, y)."}}},
  };
  return corpus;
}

std::vector<PlanPtr> CompileAll(const CorpusEntry& entry) {
  std::vector<PlanPtr> plans;
  for (const Dialect& d : entry.dialects) {
    Result<PlanPtr> plan = Plan::Compile(d.language, d.text);
    EXPECT_TRUE(plan.ok()) << entry.name << ": " << d.text << ": "
                           << plan.status().ToString();
    if (plan.ok()) plans.push_back(std::move(plan).value());
  }
  return plans;
}

TEST(PlanRouteDifferentialTest, DialectsShareOneCanonicalHash) {
  for (const CorpusEntry& entry : Corpus()) {
    SCOPED_TRACE(entry.name);
    std::vector<PlanPtr> plans = CompileAll(entry);
    ASSERT_EQ(plans.size(), entry.dialects.size());
    for (size_t i = 1; i < plans.size(); ++i) {
      EXPECT_EQ(plans[0]->ir().Render(), plans[i]->ir().Render())
          << entry.dialects[i].text;
      EXPECT_TRUE(plans[0]->canonical_hash() == plans[i]->canonical_hash())
          << entry.dialects[i].text << " hashed "
          << plans[i]->canonical_hash().ToHex() << " vs reference "
          << plans[0]->canonical_hash().ToHex();
    }
  }
}

TEST(PlanRouteDifferentialTest, DialectsProduceBitIdenticalResults) {
  std::vector<DocumentPtr> docs = {Catalog(1), Catalog(7, 3),
                                   Random(11, 200)};
  for (const CorpusEntry& entry : Corpus()) {
    SCOPED_TRACE(entry.name);
    std::vector<PlanPtr> plans = CompileAll(entry);
    ASSERT_EQ(plans.size(), entry.dialects.size());
    for (const DocumentPtr& doc : docs) {
      Result<QueryResult> want = plans[0]->Execute(*doc);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      for (size_t i = 1; i < plans.size(); ++i) {
        Result<QueryResult> got = plans[i]->Execute(*doc);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->value, want->value)
            << entry.dialects[i].text << " on " << doc->name();
      }
    }
  }
}

// The Executor routes once at Submit and runs a request scored at or
// below plan::kInlineCost on the submitting thread, anything else on a
// worker. Either way the answer, the engine and the route metadata are
// those of a direct Plan::Execute.
TEST(PlanRouteDifferentialTest, InlineQueuedAndDirectRunsAreBitIdentical) {
  std::vector<DocumentPtr> docs = {Catalog(1), Catalog(7, 3),
                                   Random(11, 200), Catalog(1, 1000),
                                   Random(11, 12000)};
  Executor exec(Executor::Options{.num_workers = 2});
  int inline_runs = 0;
  int queued_runs = 0;
  for (const CorpusEntry& entry : Corpus()) {
    SCOPED_TRACE(entry.name);
    for (const PlanPtr& plan : CompileAll(entry)) {
      for (const DocumentPtr& doc : docs) {
        SCOPED_TRACE(plan->text() + " on " + doc->name() + " n=" +
                     std::to_string(doc->num_nodes()));
        Result<QueryResult> want = plan->Execute(*doc);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        Submission s = exec.Submit({plan, doc, {}});
        const bool ran_inline = s.future.wait_for(std::chrono::seconds(0)) ==
                                std::future_status::ready;
        Result<QueryResult> got = s.future.get();
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        if (want->route_cost <= plan::kInlineCost) {
          EXPECT_TRUE(ran_inline);
          ++inline_runs;
        } else {
          ++queued_runs;
        }
        EXPECT_EQ(got->value, want->value);
        EXPECT_STREQ(got->engine, want->engine);
        EXPECT_EQ(got->language, want->language);
        EXPECT_EQ(got->degraded, want->degraded);
        EXPECT_EQ(got->route_cost, want->route_cost);
        EXPECT_EQ(got->route_rationale, want->route_rationale);
      }
    }
  }
  EXPECT_GT(inline_runs, 0);
  EXPECT_GT(queued_runs, 0);
}

// Every engine the plan declares eligible must answer with the same
// value the router's pick produced — the router can only change cost,
// never the answer.
TEST(PlanRouteDifferentialTest, EveryForcedRouteAgreesWithTheRouter) {
  std::vector<DocumentPtr> docs = {Catalog(1), Random(13, 150)};
  ExecContext unbounded;
  for (const CorpusEntry& entry : Corpus()) {
    SCOPED_TRACE(entry.name);
    for (const Dialect& d : entry.dialects) {
      PlanPtr plan = Plan::Compile(d.language, d.text).value();
      ASSERT_FALSE(plan->EligibleEngines().empty()) << d.text;
      for (const DocumentPtr& doc : docs) {
        Result<QueryResult> routed = plan->Execute(*doc);
        ASSERT_TRUE(routed.ok()) << routed.status().ToString();
        for (plan::EngineKind kind : plan->EligibleEngines()) {
          ExecuteOptions options;
          options.force_route = plan::EngineName(kind);
          Result<QueryResult> forced =
              plan->Execute(*doc, unbounded, options);
          ASSERT_TRUE(forced.ok())
              << d.text << " forced to " << options.force_route << ": "
              << forced.status().ToString();
          EXPECT_EQ(forced->value, routed->value)
              << d.text << " forced to " << options.force_route << " on "
              << doc->name();
        }
      }
    }
  }
}

// Arity-0 and arity-1 answers from cq.yannakakis come straight from the
// full reducer; they must equal enumerating every satisfaction of the
// plan's own canonical branches and projecting onto the head.
TEST(PlanRouteDifferentialTest, ReducerAnswersMatchEnumerateThenProject) {
  std::vector<DocumentPtr> docs = {Catalog(1), Catalog(7, 3),
                                   Random(13, 150)};
  ExecContext unbounded;
  ExecuteOptions options;
  options.force_route = "cq.yannakakis";
  int checked = 0;
  for (const CorpusEntry& entry : Corpus()) {
    SCOPED_TRACE(entry.name);
    for (const Dialect& d : entry.dialects) {
      PlanPtr plan = Plan::Compile(d.language, d.text).value();
      const plan::LogicalPlan& ir = plan->ir();
      const std::vector<plan::EngineKind>& eligible = plan->EligibleEngines();
      if (ir.arity > 1 ||
          std::find(eligible.begin(), eligible.end(),
                    plan::EngineKind::kYannakakis) == eligible.end()) {
        continue;
      }
      for (const DocumentPtr& doc : docs) {
        bool any = false;
        NodeSet nodes(doc->num_nodes());
        for (const plan::QueryGraph& branch : ir.branches) {
          cq::ConjunctiveQuery q;
          ASSERT_TRUE(plan::GraphToCq(branch, &q));
          if (ir.arity == 0) q.AddHeadVar(0);
          Result<cq::TupleSet> tuples = cq::EvaluateAcyclic(q, *doc);
          ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
          any = any || !tuples->empty();
          for (const std::vector<NodeId>& t : tuples.value()) {
            nodes.Insert(t[0]);
          }
        }
        Result<QueryResult> got = plan->Execute(*doc, unbounded, options);
        ASSERT_TRUE(got.ok()) << d.text << ": " << got.status().ToString();
        if (ir.arity == 0) {
          EXPECT_EQ(got->boolean(), any) << d.text << " on " << doc->name();
        } else {
          EXPECT_EQ(got->nodes(), nodes) << d.text << " on " << doc->name();
        }
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 20);
}

// Golden routing decisions: the engine the router picks for every
// dialect of the corpus, on the catalog and then the random tree. A change
// to the cost formulas, the native discount, or the candidate set that
// flips any unbounded decision shows up here as a diff.
TEST(PlanRouteDifferentialTest, RoutedEngineGolden) {
  const std::vector<std::string> want = {
      "descendant-chain#0: xpath.set_at_a_time cq.yannakakis",
      "descendant-chain#1: cq.yannakakis cq.yannakakis",
      "descendant-chain#2: cq.yannakakis cq.yannakakis",
      "descendant-chain#3: cq.yannakakis cq.yannakakis",
      "child-step#0: xpath.set_at_a_time cq.yannakakis",
      "child-step#1: cq.yannakakis cq.yannakakis",
      "child-step#2: cq.yannakakis cq.yannakakis",
      "boolean-label#0: cq.dichotomy cq.dichotomy",
      "boolean-label#1: cq.x_property cq.x_property",
      "boolean-desc-pair#0: cq.dichotomy cq.dichotomy",
      "boolean-desc-pair#1: cq.x_property cq.x_property",
      "binary-tuples#0: cq.yannakakis cq.yannakakis",
      "binary-tuples#1: cq.yannakakis cq.yannakakis",
      "labeled-child-pair#0: cq.yannakakis cq.yannakakis",
      "labeled-child-pair#1: cq.yannakakis cq.yannakakis",
  };
  std::vector<DocumentPtr> docs = {Catalog(1), Random(13, 150)};
  std::vector<std::string> got;
  for (const CorpusEntry& entry : Corpus()) {
    for (size_t i = 0; i < entry.dialects.size(); ++i) {
      const Dialect& d = entry.dialects[i];
      PlanPtr plan = Plan::Compile(d.language, d.text).value();
      std::string line = entry.name + std::string("#") + std::to_string(i) +
                         ":";
      for (const DocumentPtr& doc : docs) {
        Result<QueryResult> routed =
            plan->Execute(*doc, ExecContext::Unbounded(), ExecuteOptions{});
        ASSERT_TRUE(routed.ok()) << routed.status().ToString();
        line += std::string(" ") + routed->engine;
      }
      got.push_back(line);
    }
  }
  EXPECT_EQ(got, want);
}

TEST(PlanRouteDifferentialTest, ForceRouteRejectsUnknownAndIneligible) {
  PlanPtr plan = Plan::Compile(Language::kXPath, "//name").value();
  DocumentPtr doc = Catalog(1, 3);
  ExecContext unbounded;
  ExecuteOptions options;
  options.force_route = "no.such.engine";
  Result<QueryResult> unknown = plan->Execute(*doc, unbounded, options);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  // A real engine name that this plan never declared eligible.
  options.force_route = "fo.naive";
  Result<QueryResult> ineligible = plan->Execute(*doc, unbounded, options);
  ASSERT_FALSE(ineligible.ok());
  EXPECT_EQ(ineligible.status().code(), StatusCode::kUnsupported);
}

// ParseEngineName inverts EngineName on every kind, also maps the two
// post-hoc dichotomy labels, and rejects anything else.
TEST(PlanRouteDifferentialTest, EngineNamesRoundTrip) {
  for (int i = 0; i < plan::kNumEngineKinds; ++i) {
    const plan::EngineKind kind = static_cast<plan::EngineKind>(i);
    EXPECT_EQ(plan::ParseEngineName(plan::EngineName(kind)), kind)
        << plan::EngineName(kind);
  }
  EXPECT_EQ(plan::ParseEngineName("cq.x_property"),
            plan::EngineKind::kDichotomy);
  EXPECT_EQ(plan::ParseEngineName("cq.backtracking"),
            plan::EngineKind::kDichotomy);
  EXPECT_EQ(plan::ParseEngineName("no.such.engine"), std::nullopt);
  EXPECT_EQ(plan::ParseEngineName(""), std::nullopt);
}

// The acceptance criterion: one canonical hash ⇒ one PlanCache entry.
// The second dialect's compile lands on the resident hash and is aliased
// onto the existing entry instead of occupying a second slot.
TEST(PlanRouteDifferentialTest, DialectsShareOnePlanCacheEntry) {
  const CorpusEntry& entry = Corpus()[0];  // descendant-chain, 4 dialects
  PlanCache cache(8);
  for (const Dialect& d : entry.dialects) {
    ASSERT_TRUE(cache.GetOrCompile(d.language, d.text).ok()) << d.text;
  }
  EXPECT_EQ(cache.size(), 1u) << "all dialects must share one entry";
  EXPECT_EQ(cache.misses(), entry.dialects.size());
  EXPECT_EQ(cache.canonical_hits(), entry.dialects.size() - 1);
  // Re-submitting any dialect's text is now a plain hit.
  uint64_t hits_before = cache.hits();
  for (const Dialect& d : entry.dialects) {
    bool hit = false;
    ASSERT_TRUE(cache.GetOrCompile(d.language, d.text, &hit).ok());
    EXPECT_TRUE(hit) << d.text;
  }
  EXPECT_EQ(cache.hits(), hits_before + entry.dialects.size());
}

// One canonical hash ⇒ one ResultCache entry and one execution: the
// second dialect's submission is served from the cache without running.
TEST(PlanRouteDifferentialTest, DialectsShareOneResultCacheEntry) {
  DocumentPtr doc = Catalog(1);
  cache::ResultCache result_cache;
  Executor exec(Executor::Options{.num_workers = 1,
                                  .result_cache = &result_cache});
  const CorpusEntry& entry = Corpus()[0];
  std::vector<PlanPtr> plans = CompileAll(entry);
  ASSERT_EQ(plans.size(), entry.dialects.size());

  Result<QueryResult> first = exec.Submit({plans[0], doc, {}}).future.get();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(result_cache.inserts(), 1u);
  for (size_t i = 1; i < plans.size(); ++i) {
    Result<QueryResult> cached =
        exec.Submit({plans[i], doc, {}}).future.get();
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    EXPECT_EQ(cached->value, first->value) << entry.dialects[i].text;
  }
  EXPECT_EQ(result_cache.hits(), entry.dialects.size() - 1)
      << "every other dialect must be served from the shared entry";
  EXPECT_EQ(result_cache.inserts(), 1u);
  EXPECT_EQ(result_cache.size(), 1u);
}

// Routed runs report a rationale; forced runs say so.
TEST(PlanRouteDifferentialTest, ResultsCarryRouteRationale) {
  DocumentPtr doc = Catalog(1);
  PlanPtr plan = Plan::Compile(Language::kXPath, "//name").value();
  QueryResult routed = plan->Execute(*doc).value();
  EXPECT_FALSE(routed.route_rationale.empty());
  EXPECT_NE(routed.route_rationale.find("cost="), std::string::npos);
  ExecContext unbounded;
  ExecuteOptions options;
  options.force_route = "xpath.naive";
  QueryResult forced = plan->Execute(*doc, unbounded, options).value();
  EXPECT_EQ(forced.route_rationale, "forced: xpath.naive");
  EXPECT_EQ(std::string(forced.engine), "xpath.naive");
}

}  // namespace
}  // namespace engine
}  // namespace treeq
