// Differential tests for the partition-parallel axis kernel and the
// engine's parallel execution path (tree/par_axes.h, engine/plan.h +
// executor.h): every parallel result must be bit-identical to the serial
// kernel it shadows, at parallelism 0, 2, and 8, under both a true
// multi-thread runner and a pinned serial runner. min_context is forced to
// 1 throughout so even word-boundary-sized documents take the fork path.
//
// Also covered: deadline/budget/cancel fan-out into forked child tasks (a
// cancelled parent must stop its children, not just itself), and the
// ParseQuery options satellite (max_nesting override, paper-axes dialect
// gate) including bit-identical default error messages.

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/executor.h"
#include "engine/plan.h"
#include "query/parse.h"
#include "tree/axes.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "tree/node_set.h"
#include "tree/orders.h"
#include "tree/par_axes.h"
#include "tree/partition.h"
#include "util/exec_context.h"
#include "util/random.h"
#include "util/task_runner.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace treeq {
namespace {

const Axis kAllAxes[] = {
    Axis::kSelf,
    Axis::kChild,
    Axis::kParent,
    Axis::kDescendant,
    Axis::kAncestor,
    Axis::kDescendantOrSelf,
    Axis::kAncestorOrSelf,
    Axis::kNextSibling,
    Axis::kPrevSibling,
    Axis::kFollowingSibling,
    Axis::kPrecedingSibling,
    Axis::kFollowingSiblingOrSelf,
    Axis::kPrecedingSiblingOrSelf,
    Axis::kFollowing,
    Axis::kPreceding,
    Axis::kFirstChild,
    Axis::kFirstChildInv,
};

// Same word-boundary universe sizes as axes_kernel_test.cc: the OR-merge
// and the partition masks share the tail-masking hazards.
const int kUniverseSizes[] = {1, 5, 63, 64, 65, 127, 128, 130, 192};

const int kParallelisms[] = {0, 2, 8};

std::set<NodeId> RandomSubset(Rng* rng, int n, double density) {
  std::set<NodeId> s;
  for (NodeId v = 0; v < n; ++v) {
    if (rng->Bernoulli(density)) s.insert(v);
  }
  return s;
}

// The full axes_kernel_test input grid: empty, singletons, full universe,
// three densities. Serial AxisImage is the oracle.
void CheckAllAxesParallel(const Tree& t, Rng* rng, const char* shape) {
  const int n = t.num_nodes();
  const TreeOrders o = ComputeOrders(t);
  const TreePartition partition(t, o);
  std::vector<std::set<NodeId>> inputs;
  inputs.push_back({});
  inputs.push_back({t.root()});
  inputs.push_back({static_cast<NodeId>(n - 1)});
  std::set<NodeId> all;
  for (NodeId v = 0; v < n; ++v) all.insert(v);
  inputs.push_back(all);
  for (double density : {0.05, 0.3, 0.8}) {
    inputs.push_back(RandomSubset(rng, n, density));
  }

  par::SerialRunner serial_runner;
  par::ThreadPerTaskRunner thread_runner;
  par::TaskRunner* runners[] = {&serial_runner, &thread_runner};

  for (Axis axis : kAllAxes) {
    for (const std::set<NodeId>& from_ref : inputs) {
      NodeSet from(n);
      for (NodeId v : from_ref) from.Insert(v);
      NodeSet want(n);
      AxisImage(t, o, axis, from, &want);

      for (int parallelism : kParallelisms) {
        for (par::TaskRunner* runner : runners) {
          par::ParOptions options;
          options.parallelism = parallelism;
          options.runner = parallelism >= 2 ? runner : nullptr;
          options.min_context = 1;  // force forking on tiny inputs
          NodeSet got(n);
          Status s = par::ParAxisImage(t, o, partition, axis, from, &got,
                                       options, ExecContext::Unbounded());
          ASSERT_TRUE(s.ok()) << s.ToString();
          EXPECT_TRUE(got == want)
              << shape << " n=" << n << " axis=" << AxisName(axis)
              << " |from|=" << from_ref.size() << " k=" << parallelism;
          if (parallelism < 2) break;  // runner is ignored when serial
        }
      }
    }
  }
}

TEST(ParAxesDifferentialTest, RandomTrees) {
  Rng rng(1234);
  for (int n : kUniverseSizes) {
    RandomTreeOptions opts;
    opts.num_nodes = n;
    opts.attach_window = 4;  // non-pre-order node ids: remap path
    opts.alphabet = {"a", "b"};
    Tree t = RandomTree(&rng, opts);
    CheckAllAxesParallel(t, &rng, "random");
  }
}

TEST(ParAxesDifferentialTest, DeepPaths) {
  Rng rng(99);
  for (int n : kUniverseSizes) {
    Tree t = Chain(n, "a", "b");
    CheckAllAxesParallel(t, &rng, "chain");
  }
}

TEST(ParAxesDifferentialTest, WideFlat) {
  Rng rng(7);
  for (int n : kUniverseSizes) {
    if (n < 2) continue;
    Tree t = Star(n);
    CheckAllAxesParallel(t, &rng, "star");
  }
}

// ---------------------------------------------------------------------------
// Whole-query parallel evaluation: EvalQueryFromRootParallel and
// Plan::Execute must return bit-identical NodeSets at every parallelism.

const char* const kQueries[] = {
    "//a",
    "//a//b",
    "/descendant-or-self::*[a]/b",
    "//b[following-sibling::a]/ancestor::a",
    "//a[not(b)]/following::b",
};

TEST(ParEvalDifferentialTest, WholeQueriesBitIdentical) {
  Rng rng(4242);
  RandomTreeOptions opts;
  opts.num_nodes = 400;
  opts.attach_window = 6;
  opts.alphabet = {"a", "b"};
  Document doc(RandomTree(&rng, opts));
  par::ThreadPerTaskRunner runner;

  for (const char* text : kQueries) {
    auto parsed = xpath::ParseXPath(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    const xpath::PathExpr& path = *parsed.value();
    Result<NodeSet> want =
        xpath::EvalQueryFromRoot(doc, path, ExecContext::Unbounded());
    ASSERT_TRUE(want.ok());

    for (int parallelism : kParallelisms) {
      par::ParOptions options;
      options.parallelism = parallelism;
      options.runner = parallelism >= 2 ? &runner : nullptr;
      options.min_context = 1;
      par::ParStats stats;
      Result<NodeSet> got = xpath::EvalQueryFromRootParallel(
          doc, path, ExecContext::Unbounded(), options, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(got.value() == want.value())
          << text << " k=" << parallelism;
      if (parallelism >= 2) {
        EXPECT_GT(stats.partitions, 0) << text;
      }
    }
  }
}

// Charge-schedule identity at parallelism 0: the parallel entry point with
// a degenerate ParOptions must trip a visit budget at exactly the same
// point as the serial evaluator (same status, same visits_used).
TEST(ParEvalDifferentialTest, SerialPathPreservesChargeSchedule) {
  Rng rng(11);
  RandomTreeOptions opts;
  opts.num_nodes = 200;
  opts.alphabet = {"a", "b"};
  Document doc(RandomTree(&rng, opts));
  auto parsed = xpath::ParseXPath("//a//b");
  ASSERT_TRUE(parsed.ok());

  // Find the exact budget at which the serial run completes.
  ExecContext probe = ExecContext::WithVisitBudget(UINT64_MAX);
  Result<NodeSet> full =
      xpath::EvalQueryFromRoot(doc, *parsed.value(), probe);
  ASSERT_TRUE(full.ok());
  const uint64_t exact = probe.visits_used();

  for (uint64_t budget : {exact, exact - 1, exact / 2}) {
    ExecContext serial_exec = ExecContext::WithVisitBudget(budget);
    Result<NodeSet> serial =
        xpath::EvalQueryFromRoot(doc, *parsed.value(), serial_exec);

    ExecContext par_exec = ExecContext::WithVisitBudget(budget);
    par::ParOptions options;  // parallelism 0: must be the identical path
    Result<NodeSet> parallel = xpath::EvalQueryFromRootParallel(
        doc, *parsed.value(), par_exec, options);

    EXPECT_EQ(serial.ok(), parallel.ok()) << "budget " << budget;
    if (serial.ok() && parallel.ok()) {
      EXPECT_TRUE(serial.value() == parallel.value());
    } else if (!serial.ok() && !parallel.ok()) {
      EXPECT_EQ(serial.status().code(), parallel.status().code());
    }
    EXPECT_EQ(serial_exec.visits_used(), par_exec.visits_used())
        << "budget " << budget;
  }
}

// ---------------------------------------------------------------------------
// Engine level: Submit(QueryRequest) with options.parallelism produces the
// same nodes as the serial plan run, and the result carries partition
// attribution when the parallel path actually ran.

TEST(ParEngineTest, SubmitParallelismMatchesSerial) {
  Rng rng(21);
  RandomTreeOptions opts;
  opts.num_nodes = 3000;
  opts.attach_window = 8;
  opts.alphabet = {"a", "b"};
  DocumentPtr doc = MakeDocumentWithOrders(RandomTree(&rng, opts));

  auto plan = engine::Plan::Compile(Language::kXPath, "//a//b");
  ASSERT_TRUE(plan.ok());
  Result<QueryResult> serial = plan.value()->Execute(*doc);
  ASSERT_TRUE(serial.ok());

  engine::Executor executor(engine::Executor::Options{.num_workers = 4});
  for (int parallelism : kParallelisms) {
    QueryRequest request;
    request.plan = plan.value();
    request.document = doc;
    request.options.parallelism = parallelism;
    engine::Submission submission = executor.Submit(std::move(request));
    Result<QueryResult> got = submission.future.get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->is_nodes());
    EXPECT_TRUE(got->nodes() == serial->nodes()) << "k=" << parallelism;
    if (parallelism == 0) {
      EXPECT_EQ(got->partitions, 0);
    }
  }
}

// Plan::Execute with the executor's own task runner: a query whose visit
// bound |Q|*(n+1) clears the router's parallel floor runs the parallel
// path (partitions > 0) and still agrees bit-for-bit; the same query on a
// document too small for the floor stays serial.
TEST(ParEngineTest, ExecuteOnExecutorRunnerReportsPartitions) {
  auto random_doc = [](uint64_t seed, int nodes) {
    Rng rng(seed);
    RandomTreeOptions opts;
    opts.num_nodes = nodes;
    opts.attach_window = 8;
    opts.alphabet = {"a", "b"};
    return MakeDocumentWithOrders(RandomTree(&rng, opts));
  };
  // //a//b has |Q| = 9: 9 * 8001 clears 1 << 16, 9 * 1501 does not.
  DocumentPtr doc = random_doc(22, 8000);
  DocumentPtr small = random_doc(22, 1500);
  auto plan = engine::Plan::Compile(Language::kXPath, "//a//b");
  ASSERT_TRUE(plan.ok());
  Result<QueryResult> serial = plan.value()->Execute(*doc);
  ASSERT_TRUE(serial.ok());

  engine::Executor executor(engine::Executor::Options{.num_workers = 2});
  engine::ExecuteOptions exec_options;
  exec_options.parallelism = 8;
  exec_options.runner = &executor.task_runner();
  Result<QueryResult> got = plan.value()->Execute(
      *doc, ExecContext::Unbounded(), exec_options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->nodes() == serial->nodes());
  EXPECT_GT(got->partitions, 0);

  Result<QueryResult> small_serial = plan.value()->Execute(*small);
  ASSERT_TRUE(small_serial.ok());
  Result<QueryResult> small_got = plan.value()->Execute(
      *small, ExecContext::Unbounded(), exec_options);
  ASSERT_TRUE(small_got.ok()) << small_got.status().ToString();
  EXPECT_TRUE(small_got->nodes() == small_serial->nodes());
  EXPECT_EQ(small_got->partitions, 0);
}

// ---------------------------------------------------------------------------
// Deadline / budget / cancel: forked children must stop when the parent
// context trips. These run the parallel path directly with a thread runner,
// so a hang (children ignoring the parent) fails the suite timeout.

TEST(ParCancelTest, VisitBudgetTripsParallelRun) {
  Rng rng(31);
  RandomTreeOptions opts;
  opts.num_nodes = 2000;
  opts.attach_window = 8;
  opts.alphabet = {"a", "b"};
  Document doc(RandomTree(&rng, opts));
  auto parsed = xpath::ParseXPath("//a//b//a");
  ASSERT_TRUE(parsed.ok());
  par::ThreadPerTaskRunner runner;
  par::ParOptions options;
  options.parallelism = 8;
  options.runner = &runner;
  options.min_context = 1;

  ExecContext exec = ExecContext::WithVisitBudget(50);
  Result<NodeSet> got = xpath::EvalQueryFromRootParallel(
      doc, *parsed.value(), exec, options);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
      << got.status().ToString();
}

TEST(ParCancelTest, ParentCancelStopsChildren) {
  Rng rng(32);
  RandomTreeOptions opts;
  opts.num_nodes = 4000;
  opts.attach_window = 8;
  opts.alphabet = {"a", "b"};
  Document doc(RandomTree(&rng, opts));
  auto parsed = xpath::ParseXPath("//a//b//a//b");
  ASSERT_TRUE(parsed.ok());
  par::ThreadPerTaskRunner runner;
  par::ParOptions options;
  options.parallelism = 4;
  options.runner = &runner;
  options.min_context = 1;

  ExecContext exec;
  // A pre-cancelled parent: every child's first charge must observe the
  // cancellation through the parent back-pointer and abort.
  exec.Cancel();
  Result<NodeSet> got = xpath::EvalQueryFromRootParallel(
      doc, *parsed.value(), exec, options);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
}

TEST(ParCancelTest, ExecutorCancelMidRunCompletesCancelled) {
  Rng rng(33);
  RandomTreeOptions opts;
  opts.num_nodes = 6000;
  opts.attach_window = 8;
  opts.alphabet = {"a", "b"};
  DocumentPtr doc = MakeDocumentWithOrders(RandomTree(&rng, opts));
  auto plan = engine::Plan::Compile(
      Language::kXPath, "//a//b//a//b//a");
  ASSERT_TRUE(plan.ok());

  engine::Executor executor(engine::Executor::Options{.num_workers = 2});
  // Repeat until a Cancel lands mid-evaluation (timing-dependent); a
  // pre-started Cancel is also a valid outcome, so each round accepts
  // either Cancelled or a completed result and stops at first Cancelled.
  bool saw_cancelled = false;
  for (int round = 0; round < 20 && !saw_cancelled; ++round) {
    QueryRequest request;
    request.plan = plan.value();
    request.document = doc;
    request.options.parallelism = 4;
    engine::Submission submission = executor.Submit(std::move(request));
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

// Budget accounting survives the fork-join: the parent's visits_used after
// a parallel run includes the absorbed child spend (it is at least the
// serial run's total, which the k=0 path reproduces exactly).
TEST(ParCancelTest, ParentAbsorbsChildSpend) {
  Rng rng(34);
  RandomTreeOptions opts;
  opts.num_nodes = 1000;
  opts.alphabet = {"a", "b"};
  Document doc(RandomTree(&rng, opts));
  auto parsed = xpath::ParseXPath("//a//b");
  ASSERT_TRUE(parsed.ok());

  ExecContext serial_exec = ExecContext::WithVisitBudget(UINT64_MAX);
  ASSERT_TRUE(xpath::EvalQueryFromRoot(doc, *parsed.value(), serial_exec)
                  .ok());

  par::ThreadPerTaskRunner runner;
  par::ParOptions options;
  options.parallelism = 4;
  options.runner = &runner;
  options.min_context = 1;
  ExecContext par_exec = ExecContext::WithVisitBudget(UINT64_MAX);
  ASSERT_TRUE(xpath::EvalQueryFromRootParallel(doc, *parsed.value(),
                                               par_exec, options)
                  .ok());
  EXPECT_GE(par_exec.visits_used(), serial_exec.visits_used());
}

// ---------------------------------------------------------------------------
// ParseQuery options satellite: max_nesting override and the paper-axes
// dialect gate, with default behavior bit-identical to the historic parser.

TEST(ParseOptionsTest, DefaultOptionsMatchHistoricParser) {
  const char* const kTexts[] = {
      "//a//b",
      "/a[b and not(c)]/following::b",
      "//a[",  // parse error: message must match bit for bit
  };
  for (const char* text : kTexts) {
    auto plain = ParseQuery(Language::kXPath, text);
    auto with_options = ParseQuery(Language::kXPath, text, ParseOptions{});
    ASSERT_EQ(plain.ok(), with_options.ok()) << text;
    if (!plain.ok()) {
      EXPECT_EQ(plain.status().ToString(),
                with_options.status().ToString())
          << text;
    }
  }
}

TEST(ParseOptionsTest, MaxNestingOverrideRejectsDeepExpressions) {
  // 8 nested not(...) qualifiers: fine by default, over a limit of 4.
  std::string text = "//*[";
  for (int i = 0; i < 8; ++i) text += "not(";
  text += "a";
  for (int i = 0; i < 8; ++i) text += ")";
  text += "]";

  ASSERT_TRUE(ParseQuery(Language::kXPath, text).ok());

  ParseOptions options;
  options.max_nesting = 4;
  auto limited = ParseQuery(Language::kXPath, text, options);
  ASSERT_FALSE(limited.ok());
  EXPECT_EQ(limited.status().code(), StatusCode::kParseError);
  EXPECT_NE(limited.status().ToString().find("nesting"), std::string::npos)
      << limited.status().ToString();
  EXPECT_NE(limited.status().ToString().find(" at offset "),
            std::string::npos)
      << limited.status().ToString();
}

TEST(ParseOptionsTest, PaperAxesDialectGate) {
  // A paper-style relational alias: accepted by default, an "unknown axis"
  // ParseError when the dialect flag is off.
  const char* text = "/Child+::a";
  ASSERT_TRUE(ParseQuery(Language::kXPath, text).ok());

  ParseOptions options;
  options.xpath_paper_axes = false;
  auto strict = ParseQuery(Language::kXPath, text, options);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kParseError);
  EXPECT_NE(strict.status().ToString().find("unknown axis"),
            std::string::npos)
      << strict.status().ToString();
  EXPECT_NE(strict.status().ToString().find(" at offset "),
            std::string::npos)
      << strict.status().ToString();

  // Standard names still parse in strict mode.
  EXPECT_TRUE(
      ParseQuery(Language::kXPath, "/child::a/descendant::b", options).ok());
}

}  // namespace
}  // namespace treeq
