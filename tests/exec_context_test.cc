#include "util/exec_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "fault/fault.h"
#include "obs/stats.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace treeq {
namespace {

using std::chrono::hours;
using std::chrono::milliseconds;

TEST(ExecContextTest, UnboundedNeverTripsAndNeverWrites) {
  const ExecContext& exec = ExecContext::Unbounded();
  EXPECT_FALSE(exec.has_limits());
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(exec.Charge().ok());
  }
  EXPECT_TRUE(exec.CheckNow().ok());
  EXPECT_FALSE(exec.expired());
  // The fast path performs no bookkeeping writes.
  EXPECT_EQ(exec.visits_used(), 0u);
}

TEST(ExecContextTest, VisitBudgetIsDeterministic) {
  ExecContext exec = ExecContext::WithVisitBudget(100);
  EXPECT_TRUE(exec.has_limits());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(exec.Charge().ok()) << "charge " << i;
  }
  Status s = exec.Charge();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(exec.expired());
  EXPECT_EQ(exec.visits_used(), 100u);
  // Sticky: every later charge reports the same cause, with no more
  // budget consumed.
  EXPECT_EQ(exec.Charge().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(exec.CheckNow().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(exec.visits_used(), 100u);
}

TEST(ExecContextTest, MultiUnitChargesCountOnce) {
  ExecContext exec = ExecContext::WithVisitBudget(100);
  EXPECT_TRUE(exec.Charge(60).ok());
  EXPECT_TRUE(exec.Charge(40).ok());
  EXPECT_EQ(exec.Charge(1).code(), StatusCode::kResourceExhausted);
}

TEST(ExecContextTest, VisitBudgetOverflowIsABudgetTrip) {
  ExecContext exec = ExecContext::WithVisitBudget(UINT64_MAX - 1);
  EXPECT_TRUE(exec.Charge(UINT64_MAX - 1).ok());
  EXPECT_EQ(exec.Charge(UINT64_MAX).code(), StatusCode::kResourceExhausted);
}

TEST(ExecContextTest, CancelIsStickyAndCrossThread) {
  ExecContext::Limits limits;
  limits.visit_budget = UINT64_MAX - 1;  // limited, but effectively infinite
  ExecContext exec(limits);
  EXPECT_TRUE(exec.Charge().ok());

  std::atomic<bool> aborted{false};
  std::thread worker([&] {
    while (exec.Charge().ok()) {
    }
    aborted.store(true);
  });
  exec.Cancel();
  worker.join();
  EXPECT_TRUE(aborted.load());
  EXPECT_TRUE(exec.cancelled());
  EXPECT_EQ(exec.Charge().code(), StatusCode::kCancelled);
  EXPECT_EQ(exec.CheckNow().code(), StatusCode::kCancelled);
}

TEST(ExecContextTest, CancelUnlimitedContextStillTrips) {
  // A context with no limits at all must still honour Cancel().
  ExecContext exec;
  EXPECT_TRUE(exec.Charge().ok());
  exec.Cancel();
  EXPECT_EQ(exec.Charge().code(), StatusCode::kCancelled);
  EXPECT_TRUE(exec.expired());
}

TEST(ExecContextTest, ExpiredDeadlineTripsOnFirstCharge) {
  ExecContext exec = ExecContext::WithDeadline(milliseconds(-1));
  EXPECT_EQ(exec.Charge().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(exec.CheckNow().code(), StatusCode::kDeadlineExceeded);
}

TEST(ExecContextTest, DeadlineCheckedWithinOneStride) {
  ExecContext exec = ExecContext::WithDeadline(milliseconds(5));
  std::this_thread::sleep_for(milliseconds(10));
  // The clock is only consulted every kDeadlineStride units, so a single
  // charge may pass; within one stride the trip is guaranteed.
  Status s = Status::OK();
  for (uint64_t i = 0; i <= ExecContext::kDeadlineStride && s.ok(); ++i) {
    s = exec.Charge();
  }
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
}

TEST(ExecContextTest, FarDeadlineDoesNotTrip) {
  ExecContext exec = ExecContext::WithDeadline(hours(1));
  for (uint64_t i = 0; i < 4 * ExecContext::kDeadlineStride; ++i) {
    ASSERT_TRUE(exec.Charge().ok());
  }
  EXPECT_TRUE(exec.CheckNow().ok());
}

#ifndef TREEQ_OBS_DISABLED
TEST(ExecContextTest, AbortCausesCountedOnce) {
  obs::StatsRegistry& reg = obs::StatsRegistry::Global();
  reg.Reset();

  ExecContext budget = ExecContext::WithVisitBudget(1);
  EXPECT_TRUE(budget.Charge().ok());
  EXPECT_FALSE(budget.Charge().ok());
  EXPECT_FALSE(budget.Charge().ok());  // sticky repeat: not re-counted
  EXPECT_EQ(reg.CounterValue("exec.budget_exhausted"), 1u);

  ExecContext cancelled;
  cancelled.Cancel();
  EXPECT_FALSE(cancelled.Charge().ok());
  EXPECT_EQ(reg.CounterValue("exec.cancelled"), 1u);

  ExecContext late = ExecContext::WithDeadline(milliseconds(-1));
  EXPECT_FALSE(late.CheckNow().ok());
  EXPECT_EQ(reg.CounterValue("exec.deadline_exceeded"), 1u);

  // Partial progress is recorded at abort time.
  auto hist = reg.HistogramValues();
  ASSERT_TRUE(hist.contains("exec.visits_at_abort"));
  EXPECT_EQ(hist["exec.visits_at_abort"].count, 3u);
}
#endif  // TREEQ_OBS_DISABLED

// ---------------------------------------------------------------------------
// End-to-end: a real evaluator honours the budget deterministically and
// reports partial progress.

TEST(ExecContextTest, EvaluatorBudgetIsReproducible) {
  Rng rng(7);
  RandomTreeOptions opt;
  opt.num_nodes = 200;
  Document doc(RandomTree(&rng, opt));
  auto path = xpath::ParseXPath("//a[b]//c").value();

  // Find the exact cost of the query under an unlimited (but metered)
  // context, then verify the boundary is sharp: cost visits succeed,
  // cost - 1 fail, across repeated runs.
  ExecContext::Limits metered;
  metered.visit_budget = UINT64_MAX - 1;
  ExecContext meter(metered);
  ASSERT_TRUE(xpath::EvalQueryFromRoot(doc, *path, meter).ok());
  const uint64_t cost = meter.visits_used();
  ASSERT_GT(cost, 0u);

  for (int run = 0; run < 3; ++run) {
    ExecContext enough = ExecContext::WithVisitBudget(cost);
    Result<NodeSet> ok = xpath::EvalQueryFromRoot(doc, *path, enough);
    EXPECT_TRUE(ok.ok()) << run;
    EXPECT_EQ(enough.visits_used(), cost);

    ExecContext starved = ExecContext::WithVisitBudget(cost - 1);
    Result<NodeSet> fail =
        xpath::EvalQueryFromRoot(doc, *path, starved);
    ASSERT_FALSE(fail.ok()) << run;
    EXPECT_EQ(fail.status().code(), StatusCode::kResourceExhausted);
    // Partial progress: the failed run spent its whole budget.
    EXPECT_EQ(starved.visits_used(), cost - 1);
  }
}

// ---------------------------------------------------------------------------
// Fault injection through the real abort machinery (src/fault)
// ---------------------------------------------------------------------------

TEST(ExecContextFaultTest, InjectedTripsAreStickyAndRenderRealStatuses) {
  if (!fault::kFaultPointsCompiledIn) {
    GTEST_SKIP() << "fault points compiled out";
  }
  struct Case {
    const char* point;
    StatusCode code;
  };
  for (const Case& c : {Case{"exec.budget.charge",
                             StatusCode::kResourceExhausted},
                        Case{"exec.deadline.check",
                             StatusCode::kDeadlineExceeded}}) {
    SCOPED_TRACE(c.point);
    fault::FaultPlan plan;
    plan.seed = 1;
    fault::FaultRule rule;
    rule.point = c.point;
    plan.rules.push_back(rule);
    fault::ScopedFaultPlan armed(plan);
    // A bounded context (far from its real limits) trips through the same
    // sticky-abort path a genuine limit uses.
    ExecContext context = ExecContext::WithVisitBudget(uint64_t{1} << 40);
    Status status = context.Charge();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), c.code);
    // Sticky: later charges keep failing with the same kind.
    EXPECT_EQ(context.Charge().code(), c.code);
  }
}

TEST(ExecContextFaultTest, InjectionNeverTouchesTheUnboundedContext) {
  // Holds in every build: the shared Unbounded() context takes the fast
  // path and the slow-path injection sites are guarded on limited_.
  fault::FaultPlan plan;
  plan.seed = 1;
  for (const char* point : {"exec.budget.charge", "exec.deadline.check"}) {
    fault::FaultRule rule;
    rule.point = point;
    plan.rules.push_back(rule);
  }
  fault::ScopedFaultPlan armed(plan);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ExecContext::Unbounded().Charge().ok());
  }
  EXPECT_TRUE(ExecContext::Unbounded().CheckNow().ok());
}

}  // namespace
}  // namespace treeq
