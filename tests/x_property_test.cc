#include "cq/x_property.h"

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

TEST(XPropertyCheckerTest, Figure5StyleExplicitRelations) {
  // rank = identity on 4 points.
  std::vector<int> rank = {0, 1, 2, 3};
  // Crossing arcs (1, 2) and (0, 3) require the underbar (0, 2).
  std::vector<std::pair<NodeId, NodeId>> with_underbar = {{1, 2}, {0, 3},
                                                          {0, 2}};
  std::vector<std::pair<NodeId, NodeId>> without = {{1, 2}, {0, 3}};
  EXPECT_TRUE(HasXProperty(with_underbar, rank));
  EXPECT_FALSE(HasXProperty(without, rank));
  EXPECT_TRUE(HasXProperty({}, rank));
  EXPECT_TRUE(HasXProperty({{2, 1}}, rank));  // single arc, trivially
}

// Proposition 6.6, positive side: the claimed (axis, order) pairs hold on
// every generated tree.
class Prop66PositiveTest : public ::testing::TestWithParam<int> {};

TEST_P(Prop66PositiveTest, ClaimedPairsHoldOnRandomTrees) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 24;
  opts.attach_window = 1 + GetParam() % 7;
  Tree t = RandomTree(&rng, opts);
  TreeOrders o = ComputeOrders(t);
  const Axis kAll[] = {
      Axis::kSelf,          Axis::kChild,
      Axis::kDescendant,    Axis::kDescendantOrSelf,
      Axis::kNextSibling,   Axis::kFollowingSibling,
      Axis::kFollowingSiblingOrSelf, Axis::kFollowing,
      Axis::kFirstChild,
  };
  for (Axis axis : kAll) {
    for (TreeOrder order :
         {TreeOrder::kPre, TreeOrder::kPost, TreeOrder::kBflr}) {
      if (XPropertyHolds(axis, order)) {
        EXPECT_TRUE(AxisHasXPropertyOn(t, o, axis, order))
            << AxisName(axis) << " vs " << TreeOrderName(order);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop66PositiveTest, ::testing::Range(0, 8));

// Proposition 6.6, negative side ("lists all the cases"): for each
// unclaimed base-axis/order pair there is a tree where the X-property
// fails.
TEST(Prop66NegativeTest, UnclaimedPairsFailOnSomeTree) {
  const Axis kBase[] = {
      Axis::kChild,          Axis::kDescendant,
      Axis::kDescendantOrSelf, Axis::kNextSibling,
      Axis::kFollowingSibling, Axis::kFollowingSiblingOrSelf,
      Axis::kFollowing,
  };
  for (Axis axis : kBase) {
    for (TreeOrder order :
         {TreeOrder::kPre, TreeOrder::kPost, TreeOrder::kBflr}) {
      if (XPropertyHolds(axis, order)) continue;
      bool counterexample = false;
      for (int seed = 0; seed < 25 && !counterexample; ++seed) {
        Rng rng(seed);
        RandomTreeOptions opts;
        opts.num_nodes = 14;
        opts.attach_window = 1 + seed % 5;
        Tree t = RandomTree(&rng, opts);
        TreeOrders o = ComputeOrders(t);
        if (!AxisHasXPropertyOn(t, o, axis, order)) counterexample = true;
      }
      EXPECT_TRUE(counterexample)
          << AxisName(axis) << " unexpectedly has X w.r.t. "
          << TreeOrderName(order) << " on all sampled trees";
    }
  }
}

TEST(PickXOrderTest, SignatureDispatch) {
  EXPECT_EQ(PickXOrder(MustParse("Q() :- Child+(x, y), Child*(x, z).")),
            TreeOrder::kPre);
  EXPECT_EQ(PickXOrder(MustParse("Q() :- Following(x, y).")),
            TreeOrder::kPost);
  EXPECT_EQ(PickXOrder(MustParse(
                "Q() :- Child(x, y), NextSibling+(y, z), NextSibling(z, w).")),
            TreeOrder::kBflr);
  // Inverses normalize to their base axes first.
  EXPECT_EQ(PickXOrder(MustParse("Q() :- ancestor(x, y).")), TreeOrder::kPre);
  // Mixed Child + Child+ fits no single order.
  EXPECT_EQ(PickXOrder(MustParse("Q() :- Child(x, y), Child+(y, z).")),
            std::nullopt);
}

TEST(MinimumValuationTest, PicksOrderMinima) {
  PreValuation theta = {NodeSet::FromVector(5, {2, 4}),
                        NodeSet::FromVector(5, {0, 3})};
  std::vector<int> rank = {4, 3, 2, 1, 0};  // reversed order
  std::vector<NodeId> min = MinimumValuation(theta, rank);
  EXPECT_EQ(min, (std::vector<NodeId>{4, 3}));
}

// The rank-free minimum the evaluators use picks what the rank array of
// each order picks.
TEST(MinimumValuationTest, OrderComparisonsMatchRankArrays) {
  Rng rng(31);
  RandomTreeOptions opts;
  opts.num_nodes = 90;
  opts.attach_window = 6;
  Tree t = RandomTree(&rng, opts);
  TreeOrders o = ComputeOrders(t);
  const int n = t.num_nodes();
  PreValuation theta;
  for (int x = 0; x < 6; ++x) {
    NodeSet s(n);
    for (NodeId v = 0; v < n; ++v) {
      if (rng.Bernoulli(0.2)) s.Insert(v);
    }
    theta.push_back(std::move(s));
  }
  for (TreeOrder order :
       {TreeOrder::kPre, TreeOrder::kPost, TreeOrder::kBflr}) {
    EXPECT_EQ(MinimumValuation(theta, o, order),
              MinimumValuation(theta, RankOf(t, o, order)))
        << TreeOrderName(order);
  }
}

// Theorem 6.5: on X-property signatures, the AC + minimum-valuation
// evaluator agrees with the backtracking oracle — including on cyclic
// queries, which is the whole point.
class Thm65AgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(Thm65AgreementTest, MatchesNaiveOracle) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 22;
  opts.attach_window = 1 + GetParam() % 6;
  Document doc(RandomTree(&rng, opts));

  struct Case {
    const char* text;
    TreeOrder order;
  };
  const Case kCases[] = {
      // tau1, cyclic and acyclic.
      {"Q() :- Child+(x, y), Lab_a(y).", TreeOrder::kPre},
      {"Q() :- Child+(x, y), Child+(y, z), Child+(x, z), Lab_c(z).",
       TreeOrder::kPre},
      {"Q() :- Child+(x, z), Child+(y, z), Lab_a(x), Lab_b(y).",
       TreeOrder::kPre},
      {"Q() :- Child*(x, y), Child*(y, z), Lab_a(x), Lab_b(z).",
       TreeOrder::kPre},
      {"Q() :- ancestor(x, y), Lab_a(y).", TreeOrder::kPre},
      // tau2.
      {"Q() :- Following(x, y), Lab_a(x), Lab_b(y).", TreeOrder::kPost},
      {"Q() :- Following(x, y), Following(y, z), Following(x, z).",
       TreeOrder::kPost},
      {"Q() :- Following(x, y), Following(x, z), Lab_a(y), Lab_c(z).",
       TreeOrder::kPost},
      // tau3, cyclic.
      {"Q() :- Child(x, y), Child(x, z), NextSibling(y, z), Lab_a(y).",
       TreeOrder::kBflr},
      {"Q() :- NextSibling+(x, y), NextSibling+(y, z), NextSibling+(x, z).",
       TreeOrder::kBflr},
      {"Q() :- Child(x, y), NextSibling*(y, z), Lab_b(z).", TreeOrder::kBflr},
      {"Q() :- first-child(x, y), NextSibling(y, z).", TreeOrder::kBflr},
  };
  for (const Case& c : kCases) {
    ConjunctiveQuery q = MustParse(c.text);
    Result<XEvalResult> fast = EvaluateXProperty(q, doc, c.order);
    ASSERT_TRUE(fast.ok()) << c.text << ": " << fast.status().ToString();
    Result<bool> slow = NaiveSatisfiableCq(q, doc);
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(fast.value().satisfiable, slow.value()) << c.text;
  }
}

TEST_P(Thm65AgreementTest, HornEncodingAblationAgrees) {
  Rng rng(700 + GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 18;
  Document doc(RandomTree(&rng, opts));
  ConjunctiveQuery q = MustParse(
      "Q() :- Child+(x, y), Child+(y, z), Child+(x, z), Lab_b(y).");
  Result<XEvalResult> direct =
      EvaluateXProperty(q, doc, TreeOrder::kPre, AcImplementation::kDirect);
  Result<XEvalResult> horn = EvaluateXProperty(
      q, doc, TreeOrder::kPre, AcImplementation::kHornEncoding);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(horn.ok());
  EXPECT_EQ(direct.value().satisfiable, horn.value().satisfiable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Thm65AgreementTest, ::testing::Range(0, 8));

TEST(Thm65Test, RejectsNonXSignature) {
  Document doc(Chain(3));
  ConjunctiveQuery q = MustParse("Q() :- Child(x, y), Child+(y, z).");
  Result<XEvalResult> r = EvaluateXProperty(q, doc, TreeOrder::kPre);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TupleCheckTest, MembershipMatchesNaive) {
  Rng rng(33);
  RandomTreeOptions opts;
  opts.num_nodes = 15;
  opts.alphabet = {"a", "b"};
  Document doc(RandomTree(&rng, opts));
  const Tree& t = doc.tree();
  ConjunctiveQuery q =
      MustParse("Q(x, y) :- Child+(x, y), Lab_a(x), Lab_b(y).");
  Result<TupleSet> all = NaiveEvaluateCq(q, doc);
  ASSERT_TRUE(all.ok());
  for (NodeId x = 0; x < t.num_nodes(); ++x) {
    for (NodeId y = 0; y < t.num_nodes(); ++y) {
      bool expected = false;
      for (const auto& tuple : all.value()) {
        expected |= tuple == std::vector<NodeId>{x, y};
      }
      Result<bool> got =
          XPropertyTupleCheck(q, doc, TreeOrder::kPre, {x, y});
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), expected) << x << "," << y;
    }
  }
}

TEST(Thm65Test, WitnessIsMinimumValuation) {
  // Chain a-a-a: Q() :- Child+(x, y): minimum witness under <pre is the
  // root and its first strict descendant.
  Document doc(Chain(4));
  ConjunctiveQuery q = MustParse("Q() :- Child+(x, y).");
  Result<XEvalResult> r = EvaluateXProperty(q, doc, TreeOrder::kPre);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().satisfiable);
  EXPECT_EQ(r.value().witness, (std::vector<NodeId>{0, 1}));
}

}  // namespace
}  // namespace cq
}  // namespace treeq
