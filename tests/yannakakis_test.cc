#include "cq/yannakakis.h"

#include <gtest/gtest.h>

#include "cq/enumerate.h"
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

// Random tree-shaped CQ over the given axis pool: variables form a random
// tree, each edge gets a random axis and direction, labels are sprinkled.
ConjunctiveQuery RandomTreeQuery(Rng* rng, int num_vars,
                                 const std::vector<Axis>& pool,
                                 const std::vector<std::string>& labels,
                                 int arity) {
  ConjunctiveQuery q;
  for (int v = 0; v < num_vars; ++v) q.AddVar("v" + std::to_string(v));
  for (int v = 1; v < num_vars; ++v) {
    int parent = static_cast<int>(rng->Uniform(0, v - 1));
    Axis axis = pool[rng->Uniform(0, static_cast<int64_t>(pool.size()) - 1)];
    if (rng->Bernoulli(0.5)) {
      q.AddAxisAtom(axis, parent, v);
    } else {
      q.AddAxisAtom(InverseAxis(axis), v, parent);
    }
  }
  for (int v = 0; v < num_vars; ++v) {
    if (rng->Bernoulli(0.4)) {
      q.AddLabelAtom(
          labels[rng->Uniform(0, static_cast<int64_t>(labels.size()) - 1)],
          v);
    }
  }
  for (int h = 0; h < arity; ++h) {
    q.AddHeadVar(static_cast<int>(rng->Uniform(0, num_vars - 1)));
  }
  return q;
}

TEST(FullReducerTest, RejectsNonTreeShaped) {
  Document doc(Chain(3));
  ConjunctiveQuery cyclic =
      MustParse("Q() :- Child(x, y), Child(y, z), Child+(x, z).");
  EXPECT_FALSE(FullReducer(cyclic, doc).ok());
  ConjunctiveQuery disconnected =
      MustParse("Q() :- Lab_a(x), Child(y, z).");
  EXPECT_FALSE(FullReducer(disconnected, doc).ok());
}

TEST(FullReducerTest, CandidateSetsOnChain) {
  Document doc(Chain(5, "a", "b"));  // a b a b a
  ConjunctiveQuery q =
      MustParse("Q(x) :- Child(x, y), Child(y, z), Lab_a(z).");
  Result<ReducedQuery> r = FullReducer(q, doc, 0);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().satisfiable);
  // x at nodes 0, 2 (z = x+2 must be labeled a: nodes 2 and 4).
  EXPECT_EQ(r.value().candidates[0].ToVector(), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(r.value().candidates[2].ToVector(), (std::vector<NodeId>{2, 4}));
}

// Proposition 6.9 / the full-reducer property: every candidate value
// participates in at least one solution.
class FullReducerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FullReducerPropertyTest, EveryCandidateExtendsToASolution) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 18;
  opts.attach_window = 1 + GetParam() % 5;
  opts.alphabet = {"a", "b"};
  Document doc(RandomTree(&rng, opts));
  const Tree& t = doc.tree();
  std::vector<Axis> pool = {Axis::kChild, Axis::kDescendant,
                            Axis::kNextSibling, Axis::kFollowingSibling,
                            Axis::kFollowing, Axis::kDescendantOrSelf};
  for (int trial = 0; trial < 10; ++trial) {
    ConjunctiveQuery q = RandomTreeQuery(
        &rng, 2 + static_cast<int>(rng.Uniform(0, 3)), pool, {"a", "b"}, 0);
    // All-variable head for the oracle.
    ConjunctiveQuery full = q;
    for (int v = 0; v < q.num_vars(); ++v) full.AddHeadVar(v);
    Result<ReducedQuery> reduced = FullReducer(q, doc);
    ASSERT_TRUE(reduced.ok()) << q.ToString();
    Result<TupleSet> solutions = NaiveEvaluateCq(full, doc);
    ASSERT_TRUE(solutions.ok());
    EXPECT_EQ(reduced.value().satisfiable, !solutions.value().empty())
        << q.ToString();
    // Candidate sets equal per-variable projections of the solutions.
    for (int v = 0; v < q.num_vars(); ++v) {
      NodeSet projection(t.num_nodes());
      for (const auto& sol : solutions.value()) projection.Insert(sol[v]);
      EXPECT_EQ(reduced.value().candidates[v].ToVector(),
                projection.ToVector())
          << q.ToString() << " var " << v;
    }
  }
}

TEST_P(FullReducerPropertyTest, UnaryEvaluationMatchesNaive) {
  Rng rng(400 + GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 20;
  opts.alphabet = {"a", "b", "c"};
  Document doc(RandomTree(&rng, opts));
  std::vector<Axis> pool = {Axis::kChild, Axis::kDescendant,
                            Axis::kFollowingSibling, Axis::kNextSibling};
  for (int trial = 0; trial < 10; ++trial) {
    ConjunctiveQuery q = RandomTreeQuery(
        &rng, 2 + static_cast<int>(rng.Uniform(0, 3)), pool,
        {"a", "b", "c"}, 1);
    Result<NodeSet> fast = EvaluateUnaryAcyclic(q, doc);
    ASSERT_TRUE(fast.ok()) << q.ToString();
    Result<TupleSet> slow = NaiveEvaluateCq(q, doc);
    ASSERT_TRUE(slow.ok());
    std::vector<NodeId> expected;
    for (const auto& tuple : slow.value()) expected.push_back(tuple[0]);
    EXPECT_EQ(fast.value().ToVector(), expected) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullReducerPropertyTest,
                         ::testing::Range(0, 8));

// Figure 6 enumeration: all solutions, no duplicates, matches the oracle.
class EnumeratePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EnumeratePropertyTest, MatchesNaiveOnTreeQueries) {
  Rng rng(800 + GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 14;
  opts.alphabet = {"a", "b"};
  Document doc(RandomTree(&rng, opts));
  std::vector<Axis> pool = {Axis::kChild, Axis::kDescendant,
                            Axis::kNextSibling, Axis::kFollowing};
  for (int trial = 0; trial < 8; ++trial) {
    int vars = 2 + static_cast<int>(rng.Uniform(0, 2));
    ConjunctiveQuery q =
        RandomTreeQuery(&rng, vars, pool, {"a", "b"}, /*arity=*/2);
    Result<TupleSet> fast = EvaluateAcyclic(q, doc);
    ASSERT_TRUE(fast.ok()) << q.ToString();
    Result<TupleSet> slow = NaiveEvaluateCq(q, doc);
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(fast.value(), slow.value()) << q.ToString();
  }
}

TEST_P(EnumeratePropertyTest, BacktrackFree) {
  // Count: the number of full recursion completions equals the number of
  // solutions — indirectly validated by requesting a limit and receiving
  // exactly `limit` solutions when more exist.
  Rng rng(900 + GetParam());
  Document doc(Star(30));
  ConjunctiveQuery q = MustParse("Q(x, y) :- NextSibling+(x, y).");
  Result<ReducedQuery> reduced = FullReducer(q, doc);
  ASSERT_TRUE(reduced.ok());
  Result<std::vector<std::vector<NodeId>>> some =
      EnumerateSolutions(q, doc, reduced.value(), /*limit=*/7);
  ASSERT_TRUE(some.ok());
  EXPECT_EQ(some.value().size(), 7u);
}

// Every solution, over edges of every axis and its inverse (Following,
// PrecedingSibling and Parent included): enumeration from the reduced
// sets must list exactly the naive evaluator's full valuations, once
// each, on trees whose node ids are and are not pre ranks.
TEST_P(EnumeratePropertyTest, SolutionsMatchNaiveOnEveryAxis) {
  Rng rng(1000 + GetParam());
  std::vector<Axis> pool;
  for (int a = 0; a < kNumAxes; ++a) pool.push_back(static_cast<Axis>(a));
  RandomTreeOptions opts;
  opts.num_nodes = 16;
  opts.attach_window = 1 + GetParam() % 4;
  opts.alphabet = {"a", "b"};
  CatalogOptions copts;
  copts.num_products = 2;
  const std::unique_ptr<Document> docs[] = {
      std::make_unique<Document>(RandomTree(&rng, opts)),
      std::make_unique<Document>(CatalogDocument(&rng, copts))};
  for (const std::unique_ptr<Document>& d : docs) {
    const Document& doc = *d;
    for (int trial = 0; trial < 12; ++trial) {
      const int vars = 2 + static_cast<int>(rng.Uniform(0, 1));
      ConjunctiveQuery q = RandomTreeQuery(&rng, vars, pool, {"a", "b"},
                                           /*arity=*/0);
      if (trial % 3 == 0) {
        q.AddAxisAtom(Axis::kFollowing, 0, q.AddVar("f"));
      } else if (trial % 3 == 1) {
        q.AddAxisAtom(Axis::kPrecedingSibling, q.AddVar("s"), 0);
      } else {
        q.AddAxisAtom(Axis::kParent, 0, q.AddVar("p"));
      }
      ConjunctiveQuery full = q;
      for (int v = 0; v < full.num_vars(); ++v) full.AddHeadVar(v);
      Result<ReducedQuery> reduced = FullReducer(q, doc);
      ASSERT_TRUE(reduced.ok()) << q.ToString();
      Result<std::vector<std::vector<NodeId>>> listed =
          EnumerateSolutions(q, doc, reduced.value());
      ASSERT_TRUE(listed.ok()) << q.ToString();
      TupleSet got = listed.value();
      CanonicalizeTuples(&got);
      EXPECT_EQ(got.size(), listed.value().size()) << q.ToString();
      Result<TupleSet> want = NaiveEvaluateCq(full, doc);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got, want.value()) << q.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumeratePropertyTest, ::testing::Range(0, 6));

TEST(EnumerateTest, UnsatisfiableYieldsEmpty) {
  Document doc(Chain(3, "a"));
  ConjunctiveQuery q = MustParse("Q(x) :- Child(x, y), Lab_zzz(y).");
  Result<TupleSet> r = EvaluateAcyclic(q, doc);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

TEST(EnumerateTest, SolutionsSatisfyAllAtoms) {
  Rng rng(5);
  CatalogOptions copts;
  copts.num_products = 15;
  Document doc(CatalogDocument(&rng, copts));
  const Tree& t = doc.tree();
  ConjunctiveQuery q = MustParse(
      "Q(p, r) :- Child+(p, r), Lab_product(p), Lab_review(r), "
      "Child(r, c), Lab_comment(c).");
  Result<ReducedQuery> reduced = FullReducer(q, doc);
  ASSERT_TRUE(reduced.ok());
  Result<std::vector<std::vector<NodeId>>> all =
      EnumerateSolutions(q, doc, reduced.value());
  ASSERT_TRUE(all.ok());
  for (const auto& sol : all.value()) {
    for (const AxisAtom& a : q.axis_atoms()) {
      EXPECT_TRUE(
          AxisHolds(t, doc.orders(), a.axis, sol[a.var0], sol[a.var1]));
    }
    for (const LabelAtom& a : q.label_atoms()) {
      EXPECT_TRUE(t.HasLabel(sol[a.var], a.label));
    }
  }
}

}  // namespace
}  // namespace cq
}  // namespace treeq
