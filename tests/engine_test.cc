// Tests for the serving engine: Plan compile/run parity with the direct
// evaluators, PlanCache LRU semantics, and Executor concurrency.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cq/dichotomy.h"
#include "cq/parser.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "fo/corollary52.h"
#include "fo/parser.h"
#include "obs/flight_recorder.h"
#include "obs/profile.h"
#include "obs/stats.h"
#include "tree/generator.h"
#include "tree/xml.h"
#include "util/random.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace treeq {
namespace engine {
namespace {

DocumentPtr Catalog(int seed = 1, int products = 40) {
  Rng rng(static_cast<uint64_t>(seed));
  CatalogOptions opts;
  opts.num_products = products;
  return MakeDocument(CatalogDocument(&rng, opts));
}

TEST(PlanTest, XPathPlanMatchesDirectEvaluator) {
  DocumentPtr doc = Catalog();
  const std::string query = "/catalog/product[reviews/review]/name";
  Result<PlanPtr> plan = Plan::Compile(Language::kXPath, query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Result<QueryResult> got = (*plan)->Execute(*doc);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->is_boolean());

  auto ast = xpath::ParseXPath(query).value();
  NodeSet expected = xpath::EvalQueryFromRoot(*doc, *ast).value();
  EXPECT_EQ(got->nodes(), expected);
  EXPECT_EQ(got->cardinality(), static_cast<size_t>(expected.size()));
}

TEST(PlanTest, DatalogPlanMatchesDirectEvaluator) {
  DocumentPtr doc = Catalog();
  const std::string program = R"(
    Good(x) :- Lab_rating5(x).
    HasGood(x) :- Child(x, y), Good(y).
    ?- HasGood.
  )";
  Result<PlanPtr> plan = Plan::Compile(Language::kDatalog, program);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Result<QueryResult> got = (*plan)->Execute(*doc);
  ASSERT_TRUE(got.ok());

  auto ast = datalog::ParseProgram(program).value();
  NodeSet expected = datalog::EvaluateDatalog(ast, *doc).value();
  EXPECT_EQ(got->nodes(), expected);
}

TEST(PlanTest, BooleanCqPlanUsesDichotomy) {
  DocumentPtr doc = Catalog();
  const std::string query =
      "Q() :- Child+(x, y), Lab_product(x), Lab_review(y).";
  Result<PlanPtr> plan = Plan::Compile(Language::kCq, query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Child+ alone is tau_1: the X-property route.
  EXPECT_EQ((*plan)->cq_class(), cq::SignatureClass::kTau1);
  Result<QueryResult> got = (*plan)->Execute(*doc);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->is_boolean());

  auto ast = cq::ParseCq(query).value();
  EXPECT_EQ(got->boolean(), cq::EvaluateBooleanDichotomy(ast, *doc).value());
  EXPECT_TRUE(got->boolean());
}

TEST(PlanTest, KAryCqPlanEnumerates) {
  DocumentPtr doc = Catalog();
  const std::string query =
      "Q(p, r) :- Child+(p, r), Lab_product(p), Lab_review(r).";
  Result<PlanPtr> plan = Plan::Compile(Language::kCq, query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Result<QueryResult> got = (*plan)->Execute(*doc);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->is_boolean());
  EXPECT_GT(got->tuples().size(), 0u);
  EXPECT_EQ(got->cardinality(), got->tuples().size());
}

// The CQ engines — the Corollary 5.2 pipeline's Yannakakis passes
// included — charge visits where they work: 1 + n/64 per axis image, 1 per
// enumerated partner. So a visit budget bounds them exactly and
// deterministically, and the charge grows linearly with the document.
TEST(PlanTest, CqEngineVisitChargesAreExactAndLinear) {
  struct Case {
    const char* route;
    const char* text;
  };
  const Case cases[] = {
      {"cq.dichotomy", "Q() :- Child+(x, y), Lab_product(x), Lab_rating1(y)."},
      {"cq.yannakakis",
       "Q(p, r) :- Child+(p, r), Lab_product(p), Lab_review(r)."},
      {"fo.corollary52",
       "Q() :- Child+(x, y), Lab_product(x), Lab_rating1(y)."},
  };
  auto budget = [](uint64_t visits) {
    ExecContext::Limits limits;
    limits.visit_budget = visits;
    return limits;
  };
  for (const Case& c : cases) {
    PlanPtr plan = Plan::Compile(Language::kCq, c.text).value();
    ExecuteOptions options;
    options.force_route = c.route;
    auto cost_on = [&](const Document& doc) {
      ExecContext probe(budget(UINT64_MAX - 1));
      Result<QueryResult> r = plan->Execute(doc, probe, options);
      EXPECT_TRUE(r.ok()) << c.route << ": " << r.status().ToString();
      return probe.visits_used();
    };
    DocumentPtr doc = Catalog(1, 120);
    const uint64_t cost = cost_on(*doc);
    ASSERT_GT(cost, 1u) << c.route;

    ExecContext enough(budget(cost));
    EXPECT_TRUE(plan->Execute(*doc, enough, options).ok()) << c.route;
    uint64_t tripped_at[2] = {0, 0};
    for (uint64_t& at : tripped_at) {
      ExecContext starved(budget(cost - 1));
      Result<QueryResult> r = plan->Execute(*doc, starved, options);
      ASSERT_FALSE(r.ok()) << c.route;
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      at = starved.visits_used();
    }
    EXPECT_EQ(tripped_at[0], tripped_at[1]) << c.route;

    const uint64_t doubled = cost_on(*Catalog(1, 240));
    EXPECT_LE(doubled * 10, cost * 23) << c.route << ": " << cost << " -> "
                                       << doubled;
  }
}

TEST(PlanTest, NonTreeShapedKAryCqRejectedAtCompile) {
  // A cycle: x-y-z-x. Boolean cycles route to backtracking, but k-ary
  // plans require tree shape and must fail at compile time, not run time.
  Result<PlanPtr> plan = Plan::Compile(
      Language::kCq,
      "Q(x) :- Child(x, y), Child(y, z), Child+(x, z).");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kUnsupported);
}

TEST(PlanTest, FoSentencePlans) {
  DocumentPtr doc = Catalog();
  const std::string positive =
      "exists x . exists y . (Child(x, y) and Lab_review(x) and "
      "Lab_rating5(y))";
  Result<PlanPtr> plan = Plan::Compile(Language::kFo, positive);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE((*plan)->fo_positive());
  Result<QueryResult> got = (*plan)->Execute(*doc);
  ASSERT_TRUE(got.ok());
  auto ast = fo::ParseFo(positive).value();
  EXPECT_EQ(got->boolean(), fo::EvaluateSentencePositive(*ast, *doc).value());

  // Negation: still a valid plan, routed to the naive oracle.
  Result<PlanPtr> negated =
      Plan::Compile(Language::kFo, "forall x . not Lab_nosuchlabel(x)");
  ASSERT_TRUE(negated.ok()) << negated.status().ToString();
  EXPECT_FALSE((*negated)->fo_positive());
  Result<QueryResult> neg = (*negated)->Execute(*doc);
  ASSERT_TRUE(neg.ok());
  EXPECT_TRUE(neg->boolean());

  // Free variables are not servable.
  Result<PlanPtr> open = Plan::Compile(Language::kFo, "Lab_a(x)");
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().code(), StatusCode::kUnsupported);
}

TEST(PlanTest, CompileErrorsKeepParserShape) {
  Result<PlanPtr> bad = Plan::Compile(Language::kXPath, "//a[");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  EXPECT_NE(bad.status().message().find(" at offset "), std::string::npos);
}

TEST(PlanCacheTest, HitMissAndLru) {
  PlanCache cache(2);
  EXPECT_EQ(cache.capacity(), 2u);

  Result<PlanPtr> a = cache.GetOrCompile(Language::kXPath, "//a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  // Hit returns the same plan object.
  Result<PlanPtr> a2 = cache.GetOrCompile(Language::kXPath, "//a");
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2.value().get(), a.value().get());
  EXPECT_EQ(cache.hits(), 1u);

  // Same text under a different language is a different key.
  ASSERT_TRUE(cache.GetOrCompile(Language::kCq,
                                 "Q() :- Lab_a(x).").ok());
  EXPECT_EQ(cache.size(), 2u);

  // Touch //a so the CQ entry is LRU, then insert a third plan.
  ASSERT_TRUE(cache.GetOrCompile(Language::kXPath, "//a").ok());
  ASSERT_TRUE(cache.GetOrCompile(Language::kXPath, "//b").ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.Lookup(Language::kXPath, "//a").has_value());
  EXPECT_FALSE(cache.Lookup(Language::kCq, "Q() :- Lab_a(x).").has_value());
}

TEST(PlanCacheTest, CompileErrorsAreNotCached) {
  PlanCache cache(4);
  for (int i = 0; i < 3; ++i) {
    Result<PlanPtr> bad = cache.GetOrCompile(Language::kXPath, "//a[");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(PlanCacheTest, ConcurrentGetOrCompile) {
  PlanCache cache(16);
  std::vector<std::string> queries = {"//a", "//b", "//c", "//d"};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &queries] {
      for (int i = 0; i < 200; ++i) {
        auto r = cache.GetOrCompile(Language::kXPath, queries[i % 4]);
        ASSERT_TRUE(r.ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.hits() + cache.misses(), 8u * 200u);
  EXPECT_GE(cache.hits(), 8u * 200u - 8u * 4u);  // at most one miss per (thread, key)
}

TEST(ExecutorTest, SingleRequest) {
  DocumentPtr doc = Catalog();
  PlanPtr plan =
      Plan::Compile(Language::kXPath, "//review/rating5").value();
  Executor exec(Executor::Options{.num_workers = 2, .queue_capacity = 8});
  EXPECT_EQ(exec.num_workers(), 2);
  std::future<Result<QueryResult>> f = exec.Submit({plan, doc, {}}).future;
  Result<QueryResult> r = f.get();
  ASSERT_TRUE(r.ok());
  auto ast = xpath::ParseXPath("//review/rating5").value();
  EXPECT_EQ(r->nodes(), xpath::EvalQueryFromRoot(*doc, *ast).value());
}

TEST(ExecutorTest, NullPlanOrDocumentFailsCleanly) {
  DocumentPtr doc = Catalog();
  PlanPtr plan = Plan::Compile(Language::kXPath, "//a").value();
  Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 4});
  EXPECT_EQ(exec.Submit({nullptr, doc, {}}).future.get().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(exec.Submit({plan, nullptr, {}}).future.get().status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExecutorTest, MixedBatchMatchesSequentialEvaluation) {
  // 4,000 products: every plan below scores above plan::kInlineCost, so
  // the batch runs on the workers.
  std::vector<DocumentPtr> docs = {Catalog(1, 4000), Catalog(2, 4000),
                                   Catalog(3, 4000)};
  std::vector<PlanPtr> plans = {
      Plan::Compile(Language::kXPath, "//product[reviews]/name").value(),
      Plan::Compile(Language::kCq,
                    "Q() :- Child+(x, y), Lab_product(x), Lab_rating1(y).")
          .value(),
      Plan::Compile(Language::kDatalog,
                    "P(x) :- Lab_para(x).\n?- P.").value(),
      Plan::Compile(Language::kFo,
                    "exists x . Lab_price(x)").value(),
  };

  std::vector<QueryRequest> requests;
  for (size_t d = 0; d < docs.size(); ++d) {
    for (size_t p = 0; p < plans.size(); ++p) {
      ASSERT_FALSE(
          plans[p]->Route(*docs[d], ExecContext::Unbounded(), false)
              .run_inline)
          << plans[p]->text();
      requests.push_back({plans[p], docs[d], {}});
    }
  }

  Executor exec(Executor::Options{.num_workers = 4, .queue_capacity = 4});
  std::vector<std::future<Result<QueryResult>>> futures;
  for (const QueryRequest& r : requests) {
    futures.push_back(exec.Submit(r).future);
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<QueryResult> got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Result<QueryResult> expected =
        requests[i].plan->Execute(*requests[i].document);
    ASSERT_TRUE(expected.ok());
    // The variant compares shape tag and payload in one go.
    EXPECT_EQ(got->value, expected->value);
  }
}

TEST(ExecutorTest, ManyRequestsThroughSmallQueue) {
  // More requests than queue slots: Submit must backpressure, not deadlock
  // or drop. 600 products: the plan scores above plan::kInlineCost, so
  // every request goes through the queue.
  DocumentPtr doc = Catalog(5, 600);
  PlanPtr plan = Plan::Compile(Language::kXPath, "//name").value();
  ASSERT_FALSE(plan->Route(*doc, ExecContext::Unbounded(), false).run_inline);
  Executor exec(Executor::Options{.num_workers = 3, .queue_capacity = 2});
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 200; ++i) futures.push_back(exec.Submit({plan, doc, {}}).future);
  int expected = -1;
  for (auto& f : futures) {
    Result<QueryResult> r = f.get();
    ASSERT_TRUE(r.ok());
    if (expected < 0) expected = r->nodes().size();
    EXPECT_EQ(r->nodes().size(), expected);
  }
}

#ifndef TREEQ_OBS_DISABLED
// Counter exactness only holds when the TREEQ_OBS_* macros are live.
TEST(ExecutorTest, StatsMergedWhenFuturesReady) {
  obs::StatsRegistry& reg = obs::StatsRegistry::Global();
  reg.Reset();
  // 600 products: the plan scores above plan::kInlineCost, so the
  // requests run on the workers.
  DocumentPtr doc = Catalog(1, 600);
  PlanPtr plan = Plan::Compile(Language::kXPath, "//name").value();
  ASSERT_FALSE(plan->Route(*doc, ExecContext::Unbounded(), false).run_inline);
  constexpr int kRequests = 50;
  {
    Executor exec(Executor::Options{.num_workers = 4, .queue_capacity = 16});
    std::vector<std::future<Result<QueryResult>>> futures;
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(exec.Submit({plan, doc, {}}).future);
    }
    for (auto& f : futures) ASSERT_TRUE(f.get().ok());
    // All futures ready => every worker's shadow deltas are merged.
    EXPECT_EQ(reg.CounterValue("engine.exec.requests"),
              static_cast<uint64_t>(kRequests));
    EXPECT_EQ(reg.CounterValue("engine.exec.xpath_requests"),
              static_cast<uint64_t>(kRequests));
    EXPECT_EQ(reg.CounterValue("engine.exec.errors"), 0u);
  }
  EXPECT_EQ(reg.CounterValue("engine.plan.runs"),
            static_cast<uint64_t>(kRequests));
}
#endif  // TREEQ_OBS_DISABLED

TEST(ExecutorTest, SubmitAfterShutdownFails) {
  // 600 products: the plan scores above plan::kInlineCost, so requests
  // queue and are still in flight at destruction.
  DocumentPtr doc = Catalog(7, 600);
  PlanPtr plan = Plan::Compile(Language::kXPath, "//a").value();
  ASSERT_FALSE(plan->Route(*doc, ExecContext::Unbounded(), false).run_inline);
  auto exec = std::make_unique<Executor>(
      Executor::Options{.num_workers = 1, .queue_capacity = 2});
  // Exercise normal path, then destroy and verify nothing hangs. (Submit
  // after destruction is UB like any use-after-free; what we guarantee is
  // that destruction itself drains cleanly with requests in flight.)
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 20; ++i) futures.push_back(exec->Submit({plan, doc, {}}).future);
  exec.reset();  // close + drain + join
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
}

TEST(ExecutorTest, SubmitAfterExplicitShutdownReturnsUnavailable) {
  DocumentPtr doc = Catalog(7, 5);
  PlanPtr plan = Plan::Compile(Language::kXPath, "//a").value();
  Executor exec(Executor::Options{.num_workers = 2, .queue_capacity = 4});
  ASSERT_TRUE(exec.Submit({plan, doc, {}}).future.get().ok());
  exec.Shutdown();
  exec.Shutdown();  // idempotent

  // Unbounded and bounded requests alike: an already-failed future, never
  // a hang or a broken promise.
  Result<QueryResult> plain = exec.Submit({plan, doc, {}}).future.get();
  ASSERT_FALSE(plain.ok());
  EXPECT_EQ(plain.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(plain.status().message().find("shut down"), std::string::npos);

  Submission bounded = exec.Submit({plan, doc, SubmitOptions{}});
  Result<QueryResult> r = bounded.future.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST(ExecutorTest, ConcurrentSubmitAndShutdownNeverBreaksPromises) {
  // Race many Submits against Shutdown: every future must complete with
  // either a real result or Unavailable — a broken promise would throw.
  // 600 products: the plan scores above plan::kInlineCost, so every
  // accepted request races its TryPush against Close().
  DocumentPtr doc = Catalog(7, 600);
  PlanPtr plan = Plan::Compile(Language::kXPath, "//name").value();
  ASSERT_FALSE(plan->Route(*doc, ExecContext::Unbounded(), false).run_inline);
  for (int round = 0; round < 20; ++round) {
    Executor exec(Executor::Options{.num_workers = 2, .queue_capacity = 2});
    std::vector<std::future<Result<QueryResult>>> futures;
    std::mutex mu;
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 10; ++i) {
          SubmitOptions opts;
          opts.reject_when_full = true;  // non-blocking: can race Shutdown
          Submission s = exec.Submit({plan, doc, opts});
          std::lock_guard<std::mutex> lock(mu);
          futures.push_back(std::move(s.future));
        }
      });
    }
    exec.Shutdown();
    for (auto& th : submitters) th.join();
    for (auto& f : futures) {
      Result<QueryResult> r = f.get();  // must not throw
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
      }
    }
  }
}

TEST(ExecutorTest, AdmissionControlRejectsWhenSaturated) {
  // 600 products: the plan scores above plan::kInlineCost, so every
  // request goes through the queue instead of running on this thread.
  DocumentPtr doc = Catalog(3, 600);
  PlanPtr plan =
      Plan::Compile(Language::kXPath, "//product[reviews]//rating5").value();
  ASSERT_FALSE(plan->Route(*doc, ExecContext::Unbounded(), false).run_inline);
  // One worker, one queue slot: pile on non-blocking submits until at
  // least one is rejected, without ever blocking the test thread.
  Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 1});
  SubmitOptions opts;
  opts.reject_when_full = true;
  std::vector<Submission> submissions;
  int rejected = 0;
  for (int i = 0; i < 64; ++i) {
    submissions.push_back(exec.Submit({plan, doc, opts}));
  }
  for (auto& s : submissions) {
    Result<QueryResult> r = s.future.get();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
      EXPECT_NE(r.status().message().find("full"), std::string::npos);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(ExecutorTest, DeadlineExceededPromptly) {
  // A deliberately expensive request (naive FO evaluation over a sizable
  // document) with a 10ms deadline must come back DeadlineExceeded, and
  // promptly: well before the seconds it would take to finish.
  DocumentPtr doc = Catalog(11, 300);
  PlanPtr plan =
      Plan::Compile(Language::kFo,
                    "forall x . forall y . forall z . "
                    "(not Child(x, y) or not Child(y, z) or not Lab_zzz(x))")
          .value();
  Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 4});
  SubmitOptions opts;
  opts.timeout = std::chrono::milliseconds(10);
  auto start = std::chrono::steady_clock::now();
  Submission s = exec.Submit({plan, doc, opts});
  Result<QueryResult> r = s.future.get();
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // "Promptly": an order of magnitude headroom over the 2x-deadline
  // acceptance bar would flake under CI scheduling noise, so allow 50x —
  // still thousands of times shorter than running to completion.
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
}

TEST(ExecutorTest, CancelledFutureNeverDeliversAResult) {
  DocumentPtr doc = Catalog(13, 300);
  PlanPtr plan =
      Plan::Compile(Language::kFo,
                    "forall x . forall y . forall z . "
                    "(not Child(x, y) or not Child(y, z) or not Lab_zzz(x))")
          .value();
  Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 4});
  SubmitOptions opts;
  opts.visit_budget = UINT64_MAX - 1;  // bounded context, huge budget
  Submission s = exec.Submit({plan, doc, opts});
  s.Cancel();  // may land before, during, or after the worker picks it up
  Result<QueryResult> r = s.future.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

// A Cancel that lands while a worker is already evaluating stops the run
// at its next charge, and the future completes Cancelled instead of
// hanging.
TEST(ExecutorTest, CancelMidRunCompletesCancelled) {
  Rng rng(33);
  RandomTreeOptions opts;
  opts.num_nodes = 6000;
  opts.attach_window = 8;
  opts.alphabet = {"a", "b"};
  DocumentPtr doc = MakeDocument(RandomTree(&rng, opts));
  PlanPtr plan = Plan::Compile(Language::kXPath, "//a//b//a//b//a").value();

  Executor executor(Executor::Options{.num_workers = 2});
  // Repeat until a Cancel lands mid-evaluation (timing-dependent); a
  // pre-started Cancel is also a valid outcome, so each round accepts
  // either Cancelled or a completed result and stops at first Cancelled.
  bool saw_cancelled = false;
  for (int round = 0; round < 20 && !saw_cancelled; ++round) {
    QueryRequest request;
    request.plan = plan;
    request.document = doc;
    Submission submission = executor.Submit(std::move(request));
    std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    submission.Cancel();
    Result<QueryResult> got = submission.future.get();  // must not hang
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), StatusCode::kCancelled)
          << got.status().ToString();
      saw_cancelled = true;
    }
  }
  EXPECT_TRUE(saw_cancelled);
}

// A request the router scores at or below plan::kInlineCost runs on the
// submitting thread: Submit returns a future that is already ready, and a
// Cancel after it is a no-op.
TEST(ExecutorTest, CheapRequestIsReadyWhenSubmitReturns) {
  DocumentPtr doc = Catalog();
  PlanPtr plan = Plan::Compile(Language::kXPath, "//review/rating5").value();
  ASSERT_TRUE(plan->Route(*doc, ExecContext::Unbounded(), false).run_inline);
  const NodeSet expected = plan->Execute(*doc).value().nodes();
  Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 4});
  SubmitOptions bounded;
  bounded.visit_budget = UINT64_MAX - 1;
  for (const SubmitOptions& options : {SubmitOptions{}, bounded}) {
    Submission s = exec.Submit({plan, doc, options});
    EXPECT_EQ(s.future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    s.Cancel();
    Result<QueryResult> r = s.future.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->nodes(), expected);
  }
}

// A request scored above plan::kInlineCost still goes to a worker: its
// future is not ready when Submit returns, and a Cancel issued while the
// worker evaluates it stops the run.
TEST(ExecutorTest, CostlyRequestQueuesAndCancelLandsMidRun) {
  DocumentPtr doc = Catalog(13, 300);
  PlanPtr plan =
      Plan::Compile(Language::kFo,
                    "forall x . forall y . forall z . "
                    "(not Child(x, y) or not Child(y, z) or not Lab_zzz(x))")
          .value();
  ASSERT_GT(plan->Route(*doc, ExecContext::Unbounded(), false).cost,
            plan::kInlineCost);
  Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 4});
  SubmitOptions opts;
  opts.visit_budget = UINT64_MAX - 1;  // a metered context shows progress
  Submission s = exec.Submit({plan, doc, opts});
  EXPECT_NE(s.future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  // The run is under way once the worker has charged the context.
  while (s.context->visits_used() == 0 &&
         s.future.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
    std::this_thread::yield();
  }
  s.Cancel();
  Result<QueryResult> r = s.future.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_GT(s.context->visits_used(), 0u);
}

// Shutdown is checked before the result cache: a key cached before
// Shutdown() is not served after it.
TEST(ExecutorTest, CachedKeyAfterShutdownIsUnavailable) {
  DocumentPtr doc = Catalog();
  PlanPtr plan = Plan::Compile(Language::kXPath, "//review/rating5").value();
  cache::ResultCache result_cache;
  Executor exec(Executor::Options{.num_workers = 1,
                                  .result_cache = &result_cache});
  ASSERT_TRUE(exec.Submit({plan, doc, {}}).future.get().ok());
  ASSERT_EQ(result_cache.size(), 1u);
  exec.Shutdown();
  Result<QueryResult> late = exec.Submit({plan, doc, {}}).future.get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(result_cache.hits(), 0u);
}

TEST(ExecutorTest, VisitBudgetIsDeterministicAcrossSubmissions) {
  DocumentPtr doc = Catalog(17, 40);
  PlanPtr plan =
      Plan::Compile(Language::kXPath, "//product[reviews/review]/name")
          .value();
  Executor exec(Executor::Options{.num_workers = 2, .queue_capacity = 8});

  // Meter the true cost once, then check the boundary is exact and stable.
  SubmitOptions metered;
  metered.visit_budget = UINT64_MAX - 1;
  Submission probe = exec.Submit({plan, doc, metered});
  ASSERT_TRUE(probe.future.get().ok());
  const uint64_t cost = probe.context->visits_used();
  ASSERT_GT(cost, 0u);

  for (int run = 0; run < 5; ++run) {
    SubmitOptions enough;
    enough.visit_budget = cost;
    EXPECT_TRUE(exec.Submit({plan, doc, enough}).future.get().ok()) << run;

    SubmitOptions starved;
    starved.visit_budget = cost - 1;
    Result<QueryResult> r = exec.Submit({plan, doc, starved}).future.get();
    ASSERT_FALSE(r.ok()) << run;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(ExecutorTest, DegradedFallbackStreamsUnderTinyBudget) {
  // On a deep all-"a" chain, every step of //a//a//a//a carries a context
  // of ~n nodes, so the set-at-a-time evaluator charges several times more
  // than the streaming evaluator's one-unit-per-event pass. That gap is
  // where graceful degradation pays off.
  DocumentPtr doc = MakeDocument(Chain(2000, "a"));
  PlanPtr plan = Plan::Compile(Language::kXPath, "//a//a//a//a").value();
  ASSERT_TRUE(plan->stream_capable());
  NodeSet expected = plan->Execute(*doc).value().nodes();

  Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 4});

  // Meter the set-at-a-time cost (a huge budget never predicts blowup, so
  // no degradation happens on the probe).
  SubmitOptions metered;
  metered.visit_budget = UINT64_MAX - 1;
  Submission probe = exec.Submit({plan, doc, metered});
  ASSERT_TRUE(probe.future.get().ok());
  const uint64_t cost = probe.context->visits_used();

  // Just under the in-memory cost: without degradation the request dies.
  SubmitOptions opts;
  opts.visit_budget = cost - 1;
  Result<QueryResult> hard = exec.Submit({plan, doc, opts}).future.get();
  ASSERT_FALSE(hard.ok());
  EXPECT_EQ(hard.status().code(), StatusCode::kResourceExhausted);

  // With degradation the router sends the same budget to the
  // streaming evaluator, which fits comfortably and produces the exact
  // answer, flagged as degraded.
  opts.allow_degraded = true;
  Result<QueryResult> soft = exec.Submit({plan, doc, opts}).future.get();
  ASSERT_TRUE(soft.ok()) << soft.status().ToString();
  EXPECT_TRUE(soft->degraded);
  EXPECT_EQ(soft->nodes(), expected);

  // Negation is outside the conjunctive forward-rewrite fragment, so such
  // a plan is not stream-capable and cannot degrade.
  PlanPtr opaque =
      Plan::Compile(Language::kXPath, "//review[not(b)]").value();
  EXPECT_FALSE(opaque->stream_capable());
}

#ifndef TREEQ_OBS_DISABLED
TEST(ExecutorTest, BoundedExecutionCountersExported) {
  obs::StatsRegistry& reg = obs::StatsRegistry::Global();
  reg.Reset();
  DocumentPtr doc = Catalog(23, 100);
  PlanPtr plan =
      Plan::Compile(Language::kXPath, "//product[reviews]//rating5").value();
  {
    Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 1});

    SubmitOptions starved;
    starved.visit_budget = 1;
    EXPECT_FALSE(exec.Submit({plan, doc, starved}).future.get().ok());

    SubmitOptions late;
    late.timeout = std::chrono::nanoseconds(1);
    Result<QueryResult> r = exec.Submit({plan, doc, late}).future.get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);

    // The burst runs on a larger catalog, where the plan scores above
    // plan::kInlineCost and queues instead of running inline.
    DocumentPtr big = Catalog(23, 600);
    ASSERT_FALSE(
        plan->Route(*big, ExecContext::Unbounded(), false).run_inline);
    SubmitOptions reject;
    reject.reject_when_full = true;
    std::vector<Submission> burst;
    for (int i = 0; i < 64; ++i) {
      burst.push_back(exec.Submit({plan, big, reject}));
    }
    for (auto& s : burst) s.future.get();
  }
  EXPECT_GE(reg.CounterValue("exec.budget_exhausted"), 1u);
  EXPECT_GE(reg.CounterValue("exec.deadline_exceeded"), 1u);
  EXPECT_GE(reg.CounterValue("engine.rejected"), 1u);

  // The JSON export carries all three names.
  std::ostringstream json;
  reg.DumpJson(json);
  EXPECT_NE(json.str().find("\"exec.budget_exhausted\""), std::string::npos);
  EXPECT_NE(json.str().find("\"exec.deadline_exceeded\""), std::string::npos);
  EXPECT_NE(json.str().find("\"engine.rejected\""), std::string::npos);
}
#endif  // TREEQ_OBS_DISABLED

// The degradation decision is exact: a stream-capable XPath plan degrades
// iff its visit bound |Q|*(n+1) (|Q| the AST size) exceeds the visits
// left in the request's budget — what is left, not the raw budget.
TEST(PlanTest, DegradationBoundaryIsTheVisitBound) {
  const std::string query = "//a//a//a//a";
  DocumentPtr doc = MakeDocument(Chain(2000, "a"));
  PlanPtr plan = Plan::Compile(Language::kXPath, query).value();
  ASSERT_TRUE(plan->stream_capable());
  const auto size = static_cast<uint64_t>(
      xpath::PathSize(*xpath::ParseXPath(query).value()));
  const uint64_t bound =
      size * (static_cast<uint64_t>(doc->num_nodes()) + 1);
  ExecuteOptions options;
  options.allow_degraded = true;
  for (uint64_t spent : {uint64_t{0}, uint64_t{777}}) {
    SCOPED_TRACE(spent);
    ExecContext at_bound = ExecContext::WithVisitBudget(bound + spent);
    if (spent > 0) {
      ASSERT_TRUE(at_bound.Charge(spent).ok());
    }
    Result<QueryResult> native = plan->Execute(*doc, at_bound, options);
    ASSERT_TRUE(native.ok()) << native.status().ToString();
    EXPECT_FALSE(native->degraded);
    EXPECT_EQ(std::string(native->engine), "xpath.set_at_a_time");

    ExecContext below = ExecContext::WithVisitBudget(bound + spent - 1);
    if (spent > 0) {
      ASSERT_TRUE(below.Charge(spent).ok());
    }
    Result<QueryResult> degraded = plan->Execute(*doc, below, options);
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    EXPECT_TRUE(degraded->degraded);
    EXPECT_EQ(std::string(degraded->engine), "xpath.stream");
    EXPECT_EQ(degraded->nodes(), native->nodes());
  }
}

TEST(PlanTest, ExplainAndNativeEngineClassifyAtCompileTime) {
  PlanPtr streamable = Plan::Compile(Language::kXPath, "//a//b").value();
  EXPECT_EQ(streamable->NativeEngine(), plan::EngineKind::kXPathSetAtATime);
  EXPECT_NE(streamable->Explain().find("stream fallback available"),
            std::string::npos)
      << streamable->Explain();
  EXPECT_NE(streamable->Explain().find("est. visits"), std::string::npos);
  EXPECT_GT(streamable->compile_ns(), 0u);

  PlanPtr opaque = Plan::Compile(Language::kXPath, "//a[not(b)]").value();
  EXPECT_NE(opaque->Explain().find("no stream fallback"), std::string::npos);

  PlanPtr tractable =
      Plan::Compile(Language::kCq,
                    "Q() :- Child+(x, y), Lab_a(x), Lab_b(y).")
          .value();
  EXPECT_EQ(tractable->NativeEngine(), plan::EngineKind::kDichotomy);
  EXPECT_EQ(tractable->cq_class(), cq::SignatureClass::kTau1);
  EXPECT_NE(tractable->Explain().find("X-property"), std::string::npos);

  PlanPtr hard = Plan::Compile(
      Language::kCq,
      "Q() :- Child(x, y), Child(y, z), Child+(x, z).").value();
  EXPECT_EQ(hard->cq_class(), cq::SignatureClass::kNpHard);
  EXPECT_NE(hard->Explain().find("backtracking"), std::string::npos);

  PlanPtr naive =
      Plan::Compile(Language::kFo, "forall x . not Lab_z(x)").value();
  EXPECT_EQ(naive->NativeEngine(), plan::EngineKind::kFoNaive);
  EXPECT_NE(naive->Explain().find("negation"), std::string::npos);
}

TEST(PlanTest, RunReportsTheEngineThatAnswered) {
  DocumentPtr doc = Catalog();
  PlanPtr xp = Plan::Compile(Language::kXPath, "//name").value();
  EXPECT_EQ(std::string(xp->Execute(*doc)->engine), "xpath.set_at_a_time");
  PlanPtr bool_cq =
      Plan::Compile(Language::kCq,
                    "Q() :- Child+(x, y), Lab_product(x), Lab_review(y).")
          .value();
  EXPECT_EQ(std::string(bool_cq->Execute(*doc)->engine), "cq.x_property");
  // The router may honestly send a positive FO sentence to a cheaper
  // cross-language engine; whatever it picks must be one it declared
  // eligible. Forcing the native route pins the fo.corollary52 label.
  PlanPtr fo = Plan::Compile(Language::kFo, "exists x . Lab_name(x)").value();
  QueryResult routed = fo->Execute(*doc).value();
  bool eligible = false;
  for (plan::EngineKind kind : fo->EligibleEngines()) {
    if (std::string(routed.engine) == plan::EngineName(kind)) eligible = true;
  }
  EXPECT_TRUE(eligible) << routed.engine;
  ExecContext unbounded;
  ExecuteOptions pinned;
  pinned.force_route = "fo.corollary52";
  EXPECT_EQ(std::string(fo->Execute(*doc, unbounded, pinned)->engine),
            "fo.corollary52");
}

TEST(PlanCacheTest, GetOrCompileReportsHits) {
  PlanCache cache(4);
  bool hit = true;
  ASSERT_TRUE(cache.GetOrCompile(Language::kXPath, "//a", &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(cache.GetOrCompile(Language::kXPath, "//a", &hit).ok());
  EXPECT_TRUE(hit);
  // A compile failure is a miss, reported as such.
  ASSERT_FALSE(cache.GetOrCompile(Language::kXPath, "//a[", &hit).ok());
  EXPECT_FALSE(hit);
}

#ifndef TREEQ_OBS_DISABLED

/// RAII guard: enables the global flight recorder for one test, disables
/// and clears it on exit so later tests see it off again.
class ScopedGlobalRecorder {
 public:
  explicit ScopedGlobalRecorder(obs::FlightRecorder::Options options) {
    obs::FlightRecorder::Global().Enable(options);
  }
  ~ScopedGlobalRecorder() {
    obs::FlightRecorder::Global().Disable();
    obs::FlightRecorder::Global().Clear();
  }
};

// The acceptance scenario for per-query profiles: a cold-compiled query
// that degrades to the streaming fallback yields a profile with all three
// wall times, the fallback engine name, and the compile-time explanation.
TEST(ExecutorTest, ProfileCapturesColdDegradedQuery) {
  obs::StatsRegistry::Global().Reset();
  const std::string query = "//a//a//a//a";
  DocumentPtr doc = MakeDocument(Chain(2000, "a"), "chain2000");
  EXPECT_EQ(doc->name(), "chain2000");

  PlanCache cache(4);
  bool hit = true;
  PlanPtr plan = cache.GetOrCompile(Language::kXPath, query, &hit).value();
  ASSERT_FALSE(hit);
  // Naive FO, quadratic in the document: scored above plan::kInlineCost,
  // so it queues and keeps the one worker busy. A small catalog keeps the
  // run to milliseconds.
  PlanPtr filler = Plan::Compile(Language::kFo,
                                 "forall x . forall y . "
                                 "(not Child(x, y) or not Lab_zzz(x))")
                       .value();
  DocumentPtr filler_doc = Catalog();

  Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 8});

  // Meter the set-at-a-time cost before turning the recorder on.
  SubmitOptions metered;
  metered.visit_budget = UINT64_MAX - 1;
  Submission probe = exec.Submit({plan, doc, metered});
  ASSERT_TRUE(probe.future.get().ok());
  const uint64_t cost = probe.context->visits_used();
  ASSERT_GT(cost, 0u);

  obs::FlightRecorder::Options rec_options;
  rec_options.slow_threshold_ns = 1;  // everything lands in the slow ring
  ScopedGlobalRecorder recorder(rec_options);

  // A filler request ahead of the probe on the single worker guarantees
  // the probed request actually waits in the queue.
  std::future<Result<QueryResult>> filler_future =
      exec.Submit({filler, filler_doc, {}}).future;
  SubmitOptions opts;
  opts.visit_budget = cost - 1;  // forces the router to degrade
  opts.allow_degraded = true;
  opts.plan_cache_hit = hit;  // false: this request paid the compile
  Submission s = exec.Submit({plan, doc, opts});
  ASSERT_TRUE(filler_future.get().ok());
  Result<QueryResult> r = s.future.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->degraded);
  // Scored above the inline threshold: the probe went through the queue.
  ASSERT_GT(r->route_cost, plan::kInlineCost);

  const obs::QueryProfile* profile = nullptr;
  std::vector<obs::QueryProfile> recent =
      obs::FlightRecorder::Global().Recent();
  for (const obs::QueryProfile& p : recent) {
    if (p.engine == "xpath.stream") profile = &p;
  }
  ASSERT_NE(profile, nullptr) << recent.size();
  EXPECT_GT(profile->id, 0u);
  EXPECT_EQ(profile->language, "xpath");
  EXPECT_EQ(profile->query, query);
  EXPECT_EQ(profile->query_hash, obs::HashQueryText(query));
  EXPECT_EQ(profile->document, "chain2000");
  EXPECT_TRUE(profile->degraded);
  EXPECT_FALSE(profile->cache_hit);
  EXPECT_TRUE(profile->ok);
  EXPECT_EQ(profile->status, "OK");
  EXPECT_GT(profile->queue_wait_ns, 0u);
  EXPECT_GT(profile->compile_ns, 0u);
  EXPECT_GT(profile->execute_ns, 0u);
  EXPECT_GT(profile->visits, 0u);
  EXPECT_GT(profile->estimated_visits, 0u);
  EXPECT_EQ(profile->estimated_visits, r->route_cost);
  EXPECT_NE(profile->explain.find("stream fallback available"),
            std::string::npos)
      << profile->explain;

  // total_ns >= 1, so the same profile is retained as a slow query.
  bool in_slow_ring = false;
  for (const obs::QueryProfile& p : obs::FlightRecorder::Global().Slow()) {
    if (p.id == profile->id) in_slow_ring = true;
  }
  EXPECT_TRUE(in_slow_ring);
}

TEST(ExecutorTest, ProfileReportsCacheHitsCompileFree) {
  DocumentPtr doc = Catalog();
  PlanCache cache(4);
  bool hit = false;
  PlanPtr cold = cache.GetOrCompile(Language::kXPath, "//name", &hit).value();
  PlanPtr warm = cache.GetOrCompile(Language::kXPath, "//name", &hit).value();
  ASSERT_TRUE(hit);

  obs::FlightRecorder::Options rec_options;
  rec_options.slow_threshold_ns = UINT64_MAX;
  ScopedGlobalRecorder recorder(rec_options);

  Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 8});
  SubmitOptions opts;
  opts.plan_cache_hit = hit;
  ASSERT_TRUE(exec.Submit({warm, doc, opts}).future.get().ok());

  std::vector<obs::QueryProfile> recent =
      obs::FlightRecorder::Global().Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_TRUE(recent[0].cache_hit);
  EXPECT_EQ(recent[0].compile_ns, 0u);  // the hit did not pay compilation
  EXPECT_GT(cold->compile_ns(), 0u);    // though the plan itself did
  EXPECT_EQ(recent[0].engine, "xpath.set_at_a_time");
}

TEST(ExecutorTest, ProfilesAttributeWorkCounters) {
  obs::StatsRegistry::Global().Reset();
  DocumentPtr doc = Catalog(29, 80);
  // A descendant step makes the evaluator scan NodeSet words; the label
  // index serves the leading label lookups. Both must show up as this
  // request's deltas.
  PlanPtr plan =
      Plan::Compile(Language::kXPath, "//product[reviews]//rating5").value();

  obs::FlightRecorder::Options rec_options;
  rec_options.slow_threshold_ns = UINT64_MAX;
  ScopedGlobalRecorder recorder(rec_options);

  Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 8});
  SubmitOptions opts;
  opts.visit_budget = UINT64_MAX - 1;
  ASSERT_TRUE(exec.Submit({plan, doc, opts}).future.get().ok());

  std::vector<obs::QueryProfile> recent =
      obs::FlightRecorder::Global().Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_GT(recent[0].words_scanned, 0u);
  EXPECT_GT(recent[0].label_index_hits, 0u);
  // The deltas never exceed the registry totals they were carved from.
  obs::StatsRegistry& reg = obs::StatsRegistry::Global();
  EXPECT_LE(recent[0].words_scanned,
            reg.CounterValue("axes.words_scanned"));
  EXPECT_LE(recent[0].label_index_hits,
            reg.CounterValue("labelindex.hits"));
}

// Every way a request can end records exactly one profile: a worker run,
// a result-cache hit, a queue-full rejection and a Submit after Shutdown.
// A singleflight follower shares its leader's outcome and records none.
TEST(ExecutorTest, EveryWayARequestEndsRecordsOneProfile) {
  DocumentPtr doc = Catalog(41, 40);
  PlanPtr plan = Plan::Compile(Language::kXPath, "//review/rating5").value();
  PlanPtr other = Plan::Compile(Language::kXPath, "//name").value();
  // Naive FO, quadratic in the document: keeps the one worker busy for
  // milliseconds while the test thread fills the one-slot queue.
  PlanPtr blocker = Plan::Compile(Language::kFo,
                                  "forall x . forall y . "
                                  "(not Child(x, y) or not Lab_zzz(x))")
                        .value();
  cache::ResultCache result_cache;
  Executor exec(Executor::Options{.num_workers = 1,
                                  .queue_capacity = 1,
                                  .result_cache = &result_cache,
                                  .singleflight = true});
  obs::FlightRecorder::Options rec_options;
  rec_options.slow_threshold_ns = UINT64_MAX;
  ScopedGlobalRecorder recorder(rec_options);
  auto recent = [] { return obs::FlightRecorder::Global().Recent(); };

  Result<QueryResult> ran = exec.Submit({plan, doc, {}}).future.get();
  ASSERT_TRUE(ran.ok());
  ASSERT_EQ(recent().size(), 1u);
  EXPECT_EQ(recent().back().engine, ran->engine);

  Submission hit_submission = exec.Submit({plan, doc, {}});
  Result<QueryResult> hit = hit_submission.future.get();
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->value, ran->value);
  ASSERT_EQ(recent().size(), 2u);
  const obs::QueryProfile hit_profile = recent().back();
  EXPECT_EQ(hit_profile.engine, "cache.result");
  EXPECT_TRUE(hit_profile.result_cache_hit);
  EXPECT_EQ(hit_profile.visits, hit_submission.context->visits_used());
  EXPECT_EQ(hit_profile.estimated_visits, ran->route_cost);

  // The blocker runs on the worker, the leader waits in the one queue
  // slot, the follower joins the leader's flight, and the admission-
  // controlled request finds the queue full. The leader and the rejected
  // request use a larger catalog, where they score above
  // plan::kInlineCost and so queue instead of running inline.
  DocumentPtr big = Catalog(41, 600);
  ASSERT_FALSE(other->Route(*big, ExecContext::Unbounded(), false).run_inline);
  ASSERT_FALSE(plan->Route(*big, ExecContext::Unbounded(), false).run_inline);
  SubmitOptions bypass;
  bypass.bypass_cache = true;
  Submission blocked = exec.Submit({blocker, doc, bypass});
  Submission leader = exec.Submit({other, big, {}});
  Submission follower = exec.Submit({other, big, {}});
  SubmitOptions reject = bypass;
  reject.reject_when_full = true;
  Result<QueryResult> rejected = exec.Submit({plan, big, reject}).future.get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(blocked.future.get().ok());
  Result<QueryResult> led = leader.future.get();
  ASSERT_TRUE(led.ok());
  Result<QueryResult> followed = follower.future.get();
  ASSERT_TRUE(followed.ok());
  EXPECT_EQ(followed->value, led->value);
  EXPECT_EQ(exec.inflight().followers(), 1u);

  exec.Shutdown();
  Result<QueryResult> late = exec.Submit({plan, doc, bypass}).future.get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);

  // Runs of plan, blocker and leader; one hit; two rejections.
  std::vector<obs::QueryProfile> all = recent();
  ASSERT_EQ(all.size(), 6u);
  std::set<uint64_t> ids;
  int hits = 0, rejections = 0;
  for (const obs::QueryProfile& p : all) {
    ids.insert(p.id);
    hits += p.result_cache_hit ? 1 : 0;
    rejections += p.engine == "rejected" ? 1 : 0;
  }
  EXPECT_EQ(ids.size(), all.size());
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(rejections, 2);
}

// Routing happens once per request, at Submit, on both paths: the run
// executes the decision and Plan::Execute does not score again.
TEST(ExecutorTest, EachRequestRoutesOnce) {
  obs::StatsRegistry& reg = obs::StatsRegistry::Global();
  DocumentPtr small = Catalog(1, 40);
  DocumentPtr big = Catalog(1, 400);
  PlanPtr plan = Plan::Compile(Language::kXPath, "//review/rating5").value();
  ASSERT_TRUE(plan->Route(*small, ExecContext::Unbounded(), false).run_inline);
  ASSERT_FALSE(plan->Route(*big, ExecContext::Unbounded(), false).run_inline);
  reg.Reset();
  constexpr uint64_t kEach = 5;
  {
    Executor exec(Executor::Options{.num_workers = 2, .queue_capacity = 8});
    for (uint64_t i = 1; i <= kEach; ++i) {
      ASSERT_TRUE(exec.Submit({plan, small, {}}).future.get().ok());
      EXPECT_EQ(reg.CounterValue("plan.route.decisions"), i);
    }
    for (uint64_t i = 1; i <= kEach; ++i) {
      ASSERT_TRUE(exec.Submit({plan, big, {}}).future.get().ok());
      EXPECT_EQ(reg.CounterValue("plan.route.decisions"), kEach + i);
    }
  }
  EXPECT_EQ(reg.CounterValue("engine.exec.inline_requests"), kEach);
  EXPECT_EQ(reg.CounterValue("engine.exec.requests"), 2 * kEach);
  EXPECT_EQ(reg.CounterValue("engine.plan.runs"), 2 * kEach);
}

TEST(ExecutorTest, QueueWaitAndExecuteHistogramsRecorded) {
  obs::StatsRegistry& reg = obs::StatsRegistry::Global();
  reg.Reset();
  // 600 products: the plan scores above plan::kInlineCost, so the
  // requests wait in the queue for the workers.
  DocumentPtr doc = Catalog(31, 600);
  PlanPtr plan = Plan::Compile(Language::kXPath, "//name").value();
  ASSERT_FALSE(plan->Route(*doc, ExecContext::Unbounded(), false).run_inline);
  constexpr int kRequests = 10;
  {
    Executor exec(Executor::Options{.num_workers = 2, .queue_capacity = 8});
    std::vector<std::future<Result<QueryResult>>> futures;
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(exec.Submit({plan, doc, {}}).future);
    }
    for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  }
  auto histograms = reg.HistogramValues();
  ASSERT_TRUE(histograms.count("engine.queue_wait_ns"));
  ASSERT_TRUE(histograms.count("engine.execute_ns"));
  EXPECT_EQ(histograms.at("engine.queue_wait_ns").count,
            static_cast<uint64_t>(kRequests));
  EXPECT_EQ(histograms.at("engine.execute_ns").count,
            static_cast<uint64_t>(kRequests));
  EXPECT_GT(histograms.at("engine.execute_ns").sum, 0u);
}

TEST(ExecutorTest, BoundedRequestsAggregateVisitCounter) {
  obs::StatsRegistry& reg = obs::StatsRegistry::Global();
  reg.Reset();
  DocumentPtr doc = Catalog(37, 20);
  PlanPtr plan = Plan::Compile(Language::kXPath, "//name").value();
  Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 8});
  SubmitOptions opts;
  opts.visit_budget = UINT64_MAX - 1;
  Submission s = exec.Submit({plan, doc, opts});
  ASSERT_TRUE(s.future.get().ok());
  EXPECT_EQ(reg.CounterValue("exec.visits"), s.context->visits_used());
  EXPECT_GT(reg.CounterValue("exec.visits"), 0u);
}

// Both twig engines read the document's cached LabelIndex: once it is
// built, forced runs of either engine build no other index, on any branch
// of a union plan.
TEST(PlanTest, TwigEnginesReuseTheDocumentLabelIndex) {
  obs::StatsRegistry& reg = obs::StatsRegistry::Global();
  DocumentPtr doc = Catalog(41, 30);
  (void)doc->label_index();
  PlanPtr plan = Plan::Compile(Language::kDatalog,
                               "Q(x) :- Child+(y, x), Lab_product(y), "
                               "Lab_rating5(x).\n"
                               "Q(x) :- Child(y, x), Lab_review(y), "
                               "Lab_comment(x).\n"
                               "?- Q.")
                     .value();
  const std::vector<plan::EngineKind>& eligible = plan->EligibleEngines();
  ASSERT_NE(std::find(eligible.begin(), eligible.end(),
                      plan::EngineKind::kStructuralJoins),
            eligible.end());
  const uint64_t builds = reg.CounterValue("labelindex.builds");
  for (const char* route : {"cq.structural_joins", "cq.twigstack"}) {
    ExecuteOptions options;
    options.force_route = route;
    Result<QueryResult> r =
        plan->Execute(*doc, ExecContext::Unbounded(), options);
    ASSERT_TRUE(r.ok()) << route << ": " << r.status().ToString();
    EXPECT_STREQ(r->engine, route);
    EXPECT_GT(r->cardinality(), 0u) << route;
    EXPECT_EQ(reg.CounterValue("labelindex.builds"), builds) << route;
  }
}

#endif  // TREEQ_OBS_DISABLED

}  // namespace
}  // namespace engine
}  // namespace treeq
