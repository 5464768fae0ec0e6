#include "cq/treewidth_eval.h"

#include <gtest/gtest.h>

#include "cq/naive.h"
#include "cq/parser.h"
#include "tree/generator.h"
#include "util/random.h"

namespace treeq {
namespace cq {
namespace {

ConjunctiveQuery MustParse(const std::string& text) {
  Result<ConjunctiveQuery> q = ParseCq(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

// Cyclic, parallel-edge, disconnected, and plain tree-shaped queries — the
// treewidth evaluator must take them all.
const char* kQueries[] = {
    "Q() :- Child(x, y), Lab_a(y).",
    "Q() :- Child(x, y), Child(y, z), Child+(x, z).",            // triangle
    "Q() :- Child+(x, y), Child+(y, z), Child+(z, w), Child+(x, w).",
    "Q() :- Child(x, y), Child+(x, y).",                          // parallel
    "Q() :- Lab_a(x), Child(y, z), Lab_b(z).",                    // 2 comps
    "Q() :- Child(x, y), Child(x, z), NextSibling(y, z), Lab_a(y).",
    "Q() :- Following(x, y), Following(y, z), Following(x, z).",
    "Q() :- Child(x, y), NextSibling(x, y).",                     // unsat
    "Q(x) :- Child(x, y), Child(y, z), Child+(x, z), Lab_b(z).",
    "Q(x, z) :- Child+(x, y), Child+(y, z), Child+(x, z).",
    "Q(x, z) :- Lab_a(x), Lab_b(z).",                             // cross
};

class TreewidthEvalTest : public ::testing::TestWithParam<int> {};

TEST_P(TreewidthEvalTest, BooleanMatchesNaive) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 12;
  opts.attach_window = 1 + GetParam() % 5;
  opts.alphabet = {"a", "b"};
  Document doc(RandomTree(&rng, opts));
  for (const char* text : kQueries) {
    ConjunctiveQuery q = MustParse(text);
    Result<bool> fast = EvaluateBooleanTreewidth(q, doc);
    ASSERT_TRUE(fast.ok()) << text << ": " << fast.status().ToString();
    Result<bool> slow = NaiveSatisfiableCq(q, doc);
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(fast.value(), slow.value()) << text;
  }
}

TEST_P(TreewidthEvalTest, TuplesMatchNaive) {
  Rng rng(100 + GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 10;
  opts.alphabet = {"a", "b"};
  Document doc(RandomTree(&rng, opts));
  for (const char* text : kQueries) {
    ConjunctiveQuery q = MustParse(text);
    Result<TupleSet> fast = EvaluateTreewidth(q, doc);
    ASSERT_TRUE(fast.ok()) << text << ": " << fast.status().ToString();
    Result<TupleSet> slow = NaiveEvaluateCq(q, doc);
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(fast.value(), slow.value()) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreewidthEvalTest, ::testing::Range(0, 6));

TEST(TreewidthEvalTest, ReportsWidthAndWork) {
  Document doc(Chain(8, "a", "b"));
  // Triangle: width 2 (clique of 3).
  ConjunctiveQuery triangle =
      MustParse("Q() :- Child(x, y), Child(y, z), Child+(x, z).");
  TreewidthEvalStats stats;
  Result<bool> r = EvaluateBooleanTreewidth(triangle, doc, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  EXPECT_EQ(stats.width, 2);
  EXPECT_GT(stats.bag_tuples, 0u);
  EXPECT_GT(stats.candidate_checks, 0u);

  // A path query: width 1 — bags stay quadratic, not cubic.
  ConjunctiveQuery path = MustParse("Q() :- Child(x, y), Child(y, z).");
  TreewidthEvalStats path_stats;
  ASSERT_TRUE(EvaluateBooleanTreewidth(path, doc, &path_stats).ok());
  EXPECT_EQ(path_stats.width, 1);
  EXPECT_LT(path_stats.candidate_checks, stats.candidate_checks);
}

TEST(TreewidthEvalTest, LabelRestrictionPrunesDomains) {
  Document doc(Chain(30, "a", "b"));
  ConjunctiveQuery q =
      MustParse("Q() :- Child(x, y), Child(y, z), Child+(x, z), Lab_zzz(z).");
  TreewidthEvalStats stats;
  Result<bool> r = EvaluateBooleanTreewidth(q, doc, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value());
  // z's domain is empty, so its bags enumerate nothing.
  EXPECT_LT(stats.candidate_checks, 30u * 30u * 30u);
}

TEST(TreewidthEvalTest, BinaryProjectionOnCycle) {
  // All (x, z) pairs two Child steps apart that are also Child+-related
  // (always true) — exercises head projection through a cyclic query.
  Document doc(BalancedTree(3, 2, {"n"}));
  ConjunctiveQuery q =
      MustParse("Q(x, z) :- Child(x, y), Child(y, z), Child+(x, z).");
  Result<TupleSet> fast = EvaluateTreewidth(q, doc);
  Result<TupleSet> slow = NaiveEvaluateCq(q, doc);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(fast.value(), slow.value());
  EXPECT_FALSE(fast.value().empty());
}

}  // namespace
}  // namespace cq
}  // namespace treeq
