// Fault-injection storms: randomized mixed workloads against the full
// serving stack under a seed-derived fault plan (src/fault/storm.h), plus
// unit coverage for the registry itself — determinism of the firing
// schedule, plan round-tripping, and firability of every named point.
//
// Knobs (all environment variables):
//   TREEQ_STRESS_ITERS      seed-count multiplier (CI: 50 smoke, 500 nightly)
//   TREEQ_STORM_SEED        replay exactly this seed...
//   TREEQ_STORM_PLAN        ...under exactly this plan line
//   TREEQ_STORM_REPRO_FILE  append failing replay lines here (CI artifact)

#include "fault/storm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cache/eval_cache.h"
#include "cache/result_cache.h"
#include "engine/document_store.h"
#include "engine/engine.h"
#include "fault/fault.h"
#include "tree/generator.h"
#include "util/random.h"

namespace treeq {
namespace fault {
namespace {

FaultPlan OnePoint(const std::string& point, double p = 1.0,
                   uint64_t seed = 1) {
  FaultPlan plan;
  plan.seed = seed;
  FaultRule rule;
  rule.point = point;
  rule.probability = p;
  plan.rules.push_back(rule);
  return plan;
}

DocumentPtr Catalog(int seed = 1, int products = 30) {
  Rng rng(static_cast<uint64_t>(seed));
  CatalogOptions opts;
  opts.num_products = products;
  return MakeDocument(CatalogDocument(&rng, opts));
}

engine::PlanPtr XPathPlan(const std::string& text = "//review[rating5]") {
  return engine::Plan::Compile(Language::kXPath, text).value();
}

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ToStringParseRoundTrip) {
  FaultPlan plan;
  plan.seed = 1234;
  FaultRule a;
  a.point = "engine.queue.push";
  a.code = StatusCode::kUnavailable;
  a.first_hit = 3;
  a.max_fires = 1;
  plan.rules.push_back(a);
  FaultRule b;
  b.point = "exec.deadline.check";
  b.code = StatusCode::kDeadlineExceeded;
  b.probability = 0.125;
  b.thread_tag = "worker";
  plan.rules.push_back(b);

  const std::string line = plan.ToString();
  Result<FaultPlan> parsed = FaultPlan::Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToString(), line);
  ASSERT_EQ(parsed->rules.size(), 2u);
  EXPECT_EQ(parsed->seed, 1234u);
  EXPECT_EQ(parsed->rules[0].point, "engine.queue.push");
  EXPECT_EQ(parsed->rules[0].first_hit, 3u);
  EXPECT_EQ(parsed->rules[0].max_fires, 1u);
  EXPECT_EQ(parsed->rules[1].code, StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(parsed->rules[1].probability, 0.125);
  EXPECT_EQ(parsed->rules[1].thread_tag, "worker");
}

TEST(FaultPlanTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(FaultPlan::Parse("garbage").ok());
  EXPECT_FALSE(FaultPlan::Parse("seed=1 point=x").ok());  // before any rule
  EXPECT_FALSE(FaultPlan::Parse("seed=1 rule code=Unavailable").ok());
  EXPECT_FALSE(FaultPlan::Parse("seed=1 rule point=x code=NoSuch").ok());
}

TEST(FaultRegistryTest, FiringScheduleIsDeterministicInHitIndex) {
  // The determinism contract: whether the Nth hit of a point fires is a
  // pure function of (seed, point, N). Same plan re-armed, same schedule.
  auto schedule = [](uint64_t seed) {
    ScopedFaultPlan armed(OnePoint("test.determinism", 0.5, seed));
    std::vector<int> fired;
    for (int i = 0; i < 200; ++i) {
      if (!FaultRegistry::Global().Hit("test.determinism").ok()) {
        fired.push_back(i);
      }
    }
    return fired;
  };
  const std::vector<int> first = schedule(7);
  const std::vector<int> second = schedule(7);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), 200u);  // p=0.5 fires some, not all
  EXPECT_NE(first, schedule(8));  // a different seed, a different schedule
}

TEST(FaultRegistryTest, WindowAndBudgetRespected) {
  ScopedFaultPlan armed([] {
    FaultPlan plan = OnePoint("test.window");
    plan.rules[0].first_hit = 5;
    plan.rules[0].max_fires = 2;
    return plan;
  }());
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    if (!FaultRegistry::Global().Hit("test.window").ok()) {
      EXPECT_GE(i, 5) << "fired before the window opened";
      ++fired;
    }
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(FaultRegistry::Global().hits("test.window"), 10u);
  EXPECT_EQ(FaultRegistry::Global().fires("test.window"), 2u);
}

TEST(FaultRegistryTest, ThreadTagFilters) {
  ScopedFaultPlan armed([] {
    FaultPlan plan = OnePoint("test.tag");
    plan.rules[0].thread_tag = "worker";
    return plan;
  }());
  SetThreadTag("");
  EXPECT_TRUE(FaultRegistry::Global().Hit("test.tag").ok());
  SetThreadTag("worker");
  EXPECT_FALSE(FaultRegistry::Global().Hit("test.tag").ok());
  SetThreadTag("");
}

TEST(FaultRegistryTest, DisarmedHitIsOkAndMacroCompilesOut) {
  FaultRegistry::Global().Disarm();
  EXPECT_TRUE(FaultRegistry::Global().Hit("test.disarmed").ok());
  // The macro path: disarmed (or compiled out) must be a no-op.
  EXPECT_TRUE(TREEQ_FAULT_INJECT("test.disarmed").ok());
  EXPECT_FALSE(TREEQ_FAULT_FIRED("test.disarmed"));
}

TEST(FaultRegistryTest, InjectedCodeSurfacesVerbatim) {
  if (!kFaultPointsCompiledIn) GTEST_SKIP() << "fault points compiled out";
  FaultPlan plan = OnePoint("test.code");
  plan.rules[0].code = StatusCode::kResourceExhausted;
  ScopedFaultPlan armed(plan);
  Status status = TREEQ_FAULT_INJECT("test.code");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("test.code"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Every named point is firable
// ---------------------------------------------------------------------------

// Drives each KnownPoints() entry through its real seam under a p=1 plan
// and asserts the registry recorded a fire — a new TREEQ_FAULT_* site
// added without a driver here (or a KnownPoints entry without a site)
// fails this test.
TEST(FaultPointsTest, EveryKnownPointIsFirable) {
  if (!kFaultPointsCompiledIn) GTEST_SKIP() << "fault points compiled out";

  DocumentPtr doc = Catalog();
  engine::PlanPtr plan = XPathPlan();

  std::map<std::string, std::function<void()>> drivers;
  drivers["cache.eval.insert"] = [&] {
    cache::EvalCache cache(cache::EvalCacheOptions{});
    NodeSet from(doc->num_nodes());
    from.Insert(0);
    NodeSet to(doc->num_nodes());
    cache.Insert(doc->epoch(), Axis::kChild, from, to);
    EXPECT_EQ(cache.size(), 0u) << "injected insert must drop the entry";
  };
  drivers["cache.eval.lookup"] = [&] {
    cache::EvalCache cache(cache::EvalCacheOptions{});
    NodeSet from(doc->num_nodes());
    from.Insert(0);
    NodeSet to(doc->num_nodes());
    cache.Insert(doc->epoch(), Axis::kChild, from, to);
    ASSERT_EQ(cache.size(), 1u);
    NodeSet out(doc->num_nodes());
    EXPECT_FALSE(cache.Lookup(doc->epoch(), Axis::kChild, from, &out))
        << "injected lookup must be a forced miss";
  };
  auto result_key = [&] {
    cache::ResultKey key;
    key.doc_epoch = doc->epoch();
    key.query_hash_hi = plan->canonical_hash().hi;
    key.query_hash_lo = plan->canonical_hash().lo;
    return key;
  };
  drivers["cache.result.insert"] = [&, result_key] {
    cache::ResultCache cache(cache::ResultCacheOptions{});
    cache.Insert(result_key(), QueryResult{});
    EXPECT_EQ(cache.size(), 0u) << "injected insert must drop the entry";
  };
  drivers["cache.result.lookup"] = [&, result_key] {
    cache::ResultCache cache(cache::ResultCacheOptions{});
    cache.Insert(result_key(), QueryResult{});
    ASSERT_EQ(cache.size(), 1u);
    EXPECT_FALSE(cache.Lookup(result_key()).has_value())
        << "injected lookup must be a forced miss";
  };
  drivers["cache.result.invalidate"] = [&, result_key] {
    cache::ResultCache cache(cache::ResultCacheOptions{});
    cache.Insert(result_key(), QueryResult{});
    ASSERT_EQ(cache.size(), 1u);
    // Injected invalidate drops the fan-out: the dead-epoch entry lingers
    // (harmless — epoch-keyed lookups can never reach it from new docs).
    cache.InvalidateDocument(doc->epoch());
    EXPECT_EQ(cache.size(), 1u) << "injected invalidate must be skipped";
  };
  drivers["cache.flight.join"] = [&] {
    engine::Executor::Options opts;
    opts.num_workers = 1;
    opts.singleflight = true;
    engine::Executor executor(opts);
    QueryRequest request;
    request.plan = plan;
    request.document = doc;
    // Eligible unbounded request with singleflight on: Submit consults
    // the join point (fired = execute standalone, which is still ok).
    engine::Submission s = executor.Submit(request);
    Result<QueryResult> outcome = s.future.get();
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  };
  drivers["engine.queue.push"] = [&] {
    engine::Executor executor(engine::Executor::Options{});
    QueryRequest request;
    request.plan = plan;
    request.document = doc;
    Result<QueryResult> outcome = executor.Submit(request).future.get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
  };
  drivers["engine.queue.pop"] = drivers["engine.worker.run"] = [&] {
    engine::Executor executor(engine::Executor::Options{});
    QueryRequest request;
    request.plan = plan;
    request.document = doc;
    Result<QueryResult> outcome = executor.Submit(request).future.get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
  };
  drivers["engine.shutdown"] = [&] {
    engine::Executor executor(engine::Executor::Options{});
    executor.Shutdown();  // injected status is advisory; must not abort
  };
  drivers["exec.budget.charge"] = [&] {
    ExecContext context = ExecContext::WithVisitBudget(1 << 20);
    Status status = context.Charge(1);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    // Sticky: the context stays tripped after the injected abort.
    EXPECT_FALSE(context.Charge(1).ok());
  };
  drivers["exec.deadline.check"] = [&] {
    ExecContext context = ExecContext::WithVisitBudget(1 << 20);
    Status status = context.Charge(1);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  };
  drivers["plan.route.decide"] = [&] {
    // Injected router failure = the cost-based decision is abandoned and
    // the plan falls back to its native engine. The answer must be the
    // same nodes either way — misrouting recovery, not an error.
    // The fault point fires only on unbounded, unforced requests, so this
    // bounded reference result is immune to the armed plan.
    ExecContext bounded = ExecContext::WithVisitBudget(uint64_t{1} << 40);
    QueryResult want = plan->Execute(*doc, bounded).value();
    Result<QueryResult> got = plan->Execute(*doc);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->value, want.value)
        << "fallback route must return identical results";
  };
  drivers["store.evict.notify"] = [&] {
    engine::DocumentStore store;
    bool notified = false;
    store.AddEvictionListener([&](uint64_t) { notified = true; });
    Rng rng(3);
    CatalogOptions opts;
    opts.num_products = 4;
    ASSERT_TRUE(store.Add("d", CatalogDocument(&rng, opts)).ok());
    ASSERT_TRUE(store.Replace("d", CatalogDocument(&rng, opts)).ok());
    EXPECT_FALSE(notified) << "injected notify must drop the fan-out";
  };

  for (const std::string& point : KnownPoints()) {
    ASSERT_TRUE(drivers.count(point))
        << "no firability driver for known point " << point;
    SCOPED_TRACE(point);
    {
      ScopedFaultPlan armed(OnePoint(point));
      drivers[point]();
      EXPECT_GT(FaultRegistry::Global().fires(point), 0u)
          << "driver never fired " << point;
    }
  }
}

TEST(FaultPointsTest, InjectedExecTripsDoNotTouchUnbounded) {
  if (!kFaultPointsCompiledIn) GTEST_SKIP() << "fault points compiled out";
  // The shared Unbounded() context takes the fast path and is explicitly
  // excluded from injection: even a p=1 plan on every exec point must
  // leave it usable (a tripped Unbounded() would poison the process).
  FaultPlan plan;
  plan.seed = 1;
  for (const char* point : {"exec.budget.charge", "exec.deadline.check"}) {
    FaultRule rule;
    rule.point = point;
    plan.rules.push_back(rule);
  }
  ScopedFaultPlan armed(plan);
  EXPECT_TRUE(ExecContext::Unbounded().Charge(1).ok());
}

// ---------------------------------------------------------------------------
// Storms
// ---------------------------------------------------------------------------

void ReportFailure(const StormReport& report) {
  ADD_FAILURE() << report.ToString();
  const char* path = std::getenv("TREEQ_STORM_REPRO_FILE");
  if (path != nullptr && *path != '\0') {
    std::ofstream out(path, std::ios::app);
    out << report.replay_line << "\n";
  }
}

TEST(FaultStormTest, SeededStormsHoldEngineInvariants) {
  if (!kFaultPointsCompiledIn) GTEST_SKIP() << "fault points compiled out";
  // Default: a handful of seeds (fast enough for tier-1-adjacent local
  // runs); CI scales with TREEQ_STRESS_ITERS. Every fourth seed also
  // races Shutdown against the workload tail.
  const int seeds = StressIters(6);
  for (int seed = 1; seed <= seeds; ++seed) {
    StormOptions options;
    options.seed = static_cast<uint64_t>(seed);
    options.shutdown_race = (seed % 4 == 0);
    StormReport report = RunStorm(options);
    if (!report.passed()) ReportFailure(report);
    EXPECT_GT(report.submits, 0u);
#ifndef TREEQ_OBS_DISABLED
    // The mix covers both sides of plan::kInlineCost.
    EXPECT_GT(report.inline_runs, 0u) << report.ToString();
    EXPECT_GT(report.worker_runs, 0u) << report.ToString();
#endif
  }
}

// A seed's fault plan means the same on both paths: an executed request,
// inline or on a worker, hits each executor fault point exactly once, so
// the Nth hit of a point is the Nth request's.
TEST(FaultPointsTest, EachRequestHitsEachExecutorPointOnce) {
  if (!kFaultPointsCompiledIn) GTEST_SKIP() << "fault points compiled out";
  DocumentPtr small = Catalog(1, 30);
  DocumentPtr big = Catalog(1, 600);
  engine::PlanPtr plan = XPathPlan();
  ASSERT_TRUE(
      plan->Route(*small, ExecContext::Unbounded(), false).run_inline);
  ASSERT_FALSE(plan->Route(*big, ExecContext::Unbounded(), false).run_inline);
  engine::Executor::Options opts;
  opts.num_workers = 2;
  opts.singleflight = true;
  engine::Executor executor(opts);
  // Armed with a rule that never fires: every point counts its hits.
  ScopedFaultPlan armed(OnePoint("engine.shutdown", 0.0));
  constexpr uint64_t kEach = 4;
  for (const DocumentPtr& doc : {small, big}) {
    for (uint64_t i = 0; i < kEach; ++i) {
      QueryRequest request;
      request.plan = plan;
      request.document = doc;
      ASSERT_TRUE(executor.Submit(request).future.get().ok());
    }
  }
  for (const char* point :
       {"cache.flight.join", "plan.route.decide", "engine.queue.push",
        "engine.queue.pop", "engine.worker.run"}) {
    EXPECT_EQ(FaultRegistry::Global().hits(point), 2 * kEach) << point;
  }
}

TEST(FaultStormTest, StormIsReplayableFromItsLine) {
  if (!kFaultPointsCompiledIn) GTEST_SKIP() << "fault points compiled out";
  // The replay contract end to end: parse the plan line a report prints,
  // re-run under it, and the invariants must hold again (the firing
  // schedule per hit index is identical by construction).
  StormOptions options;
  options.seed = 11;
  StormReport first = RunStorm(options);
  if (!first.passed()) ReportFailure(first);
  Result<FaultPlan> parsed = FaultPlan::Parse(first.plan_line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToString(), first.plan_line);
  StormReport again = RunStorm(options, *parsed);
  if (!again.passed()) ReportFailure(again);
  EXPECT_EQ(again.plan_line, first.plan_line);
}

TEST(FaultStormTest, ReplayFromEnvironment) {
  if (!kFaultPointsCompiledIn) GTEST_SKIP() << "fault points compiled out";
  // The debugging entry point CI prints in its artifact:
  //   TREEQ_STORM_SEED=7 TREEQ_STORM_PLAN='seed=7 rule ...'
  //     ./fault_storm_test --gtest_filter='*ReplayFromEnvironment'
  const char* seed_env = std::getenv("TREEQ_STORM_SEED");
  const char* plan_env = std::getenv("TREEQ_STORM_PLAN");
  const bool have_seed = seed_env != nullptr && *seed_env != '\0';
  const bool have_plan = plan_env != nullptr && *plan_env != '\0';
  if (!have_seed && !have_plan) {
    GTEST_SKIP() << "neither TREEQ_STORM_SEED nor TREEQ_STORM_PLAN set";
  }
  StormOptions options;
  StormReport report;
  if (have_plan) {
    Result<FaultPlan> plan = FaultPlan::Parse(plan_env);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    // The workload seed defaults to the plan's own seed; an explicit
    // TREEQ_STORM_SEED overrides it (the two differ when a plan is
    // replayed against a different traffic mix on purpose).
    options.seed = have_seed ? std::strtoull(seed_env, nullptr, 10)
                             : plan->seed;
    report = RunStorm(options, *plan);
  } else {
    options.seed = std::strtoull(seed_env, nullptr, 10);
    report = RunStorm(options);
  }
  EXPECT_TRUE(report.passed()) << report.ToString();
}

}  // namespace
}  // namespace fault
}  // namespace treeq
