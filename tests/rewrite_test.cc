#include "cq/rewrite.h"

#include <gtest/gtest.h>

#include <map>

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

RewriteAxis kAxes[] = {RewriteAxis::kChild, RewriteAxis::kChildPlus,
                       RewriteAxis::kNextSibling,
                       RewriteAxis::kNextSiblingPlus};

Axis ToTreeAxis(RewriteAxis r) {
  switch (r) {
    case RewriteAxis::kChild:
      return Axis::kChild;
    case RewriteAxis::kChildPlus:
      return Axis::kDescendant;
    case RewriteAxis::kNextSibling:
      return Axis::kNextSibling;
    case RewriteAxis::kNextSiblingPlus:
      return Axis::kFollowingSibling;
  }
  return Axis::kSelf;
}

// Table 1, verified empirically: R(x,z) ∧ S(y,z) ∧ x <pre y is satisfiable
// iff some (x, y, z) witness exists on some tree of a generated family.
TEST(Table1Test, MatrixMatchesExhaustiveSearch) {
  std::vector<Tree> trees;
  for (int seed = 0; seed < 12; ++seed) {
    Rng rng(seed);
    RandomTreeOptions opts;
    opts.num_nodes = 10;
    opts.attach_window = 1 + seed % 5;
    trees.push_back(RandomTree(&rng, opts));
  }
  for (RewriteAxis r : kAxes) {
    for (RewriteAxis s : kAxes) {
      bool witness = false;
      for (const Tree& t : trees) {
        TreeOrders o = ComputeOrders(t);
        for (NodeId x = 0; x < t.num_nodes() && !witness; ++x) {
          for (NodeId y = 0; y < t.num_nodes() && !witness; ++y) {
            if (x >= y) continue;
            for (NodeId z = 0; z < t.num_nodes() && !witness; ++z) {
              witness = AxisHolds(t, o, ToTreeAxis(r), x, z) &&
                        AxisHolds(t, o, ToTreeAxis(s), y, z);
            }
          }
        }
        if (witness) break;
      }
      EXPECT_EQ(Table1Satisfiable(r, s), witness)
          << "R=" << static_cast<int>(r) << " S=" << static_cast<int>(s);
    }
  }
}

TEST(Table1Test, PaperEntries) {
  using RA = RewriteAxis;
  // The exact matrix of Table 1.
  EXPECT_FALSE(Table1Satisfiable(RA::kChild, RA::kChild));
  EXPECT_FALSE(Table1Satisfiable(RA::kChild, RA::kChildPlus));
  EXPECT_TRUE(Table1Satisfiable(RA::kChild, RA::kNextSibling));
  EXPECT_TRUE(Table1Satisfiable(RA::kChild, RA::kNextSiblingPlus));
  EXPECT_TRUE(Table1Satisfiable(RA::kChildPlus, RA::kChild));
  EXPECT_TRUE(Table1Satisfiable(RA::kChildPlus, RA::kChildPlus));
  EXPECT_TRUE(Table1Satisfiable(RA::kChildPlus, RA::kNextSibling));
  EXPECT_TRUE(Table1Satisfiable(RA::kChildPlus, RA::kNextSiblingPlus));
  EXPECT_FALSE(Table1Satisfiable(RA::kNextSibling, RA::kChild));
  EXPECT_FALSE(Table1Satisfiable(RA::kNextSibling, RA::kChildPlus));
  EXPECT_FALSE(Table1Satisfiable(RA::kNextSibling, RA::kNextSibling));
  EXPECT_FALSE(Table1Satisfiable(RA::kNextSibling, RA::kNextSiblingPlus));
  EXPECT_FALSE(Table1Satisfiable(RA::kNextSiblingPlus, RA::kChild));
  EXPECT_FALSE(Table1Satisfiable(RA::kNextSiblingPlus, RA::kChildPlus));
  EXPECT_TRUE(Table1Satisfiable(RA::kNextSiblingPlus, RA::kNextSibling));
  EXPECT_TRUE(
      Table1Satisfiable(RA::kNextSiblingPlus, RA::kNextSiblingPlus));
}

bool IsAcyclicOutput(const ConjunctiveQuery& q) {
  // Each variable has at most one incoming axis atom and the directed
  // graph is a forest (no cycles, since edges always point pre-forward).
  std::map<int, int> indegree;
  for (const AxisAtom& a : q.axis_atoms()) {
    if (a.var0 == a.var1) return false;
    if (++indegree[a.var1] > 1) return false;
  }
  return true;
}

Result<TupleSet> EvalUnion(const std::vector<ConjunctiveQuery>& queries,
                           const Document& doc) {
  TupleSet all;
  for (const ConjunctiveQuery& q : queries) {
    TREEQ_ASSIGN_OR_RETURN(TupleSet part, NaiveEvaluateCq(q, doc));
    for (auto& tuple : part) all.push_back(std::move(tuple));
  }
  CanonicalizeTuples(&all);
  return all;
}

const char* kRewriteInputs[] = {
    // Boolean, cyclic.
    "Q() :- Child+(x, z), Child+(y, z), Lab_a(x), Lab_b(y).",
    "Q() :- Child*(x, y), Child*(y, z), Lab_a(x), Lab_c(z).",
    "Q() :- NextSibling+(x, z), NextSibling+(y, z).",
    "Q() :- Child(x, z), NextSibling(y, z), Lab_a(y).",
    "Q() :- Following(x, y), Lab_a(x), Lab_b(y).",
    "Q() :- Child+(x, y), NextSibling*(y, z), Child(z, w).",
    // Unary and binary heads.
    "Q(z) :- Child+(x, z), Child+(y, z), Lab_a(x), Lab_b(y).",
    "Q(x, y) :- Child*(x, y), Lab_b(y).",
    // With Self and inverse axes (preprocessing).
    "Q(x) :- self(x, y), Child(y, z), Lab_a(z).",
    "Q(x) :- parent(x, y), Lab_a(y).",
    // Unsatisfiable everywhere.
    "Q() :- Child(x, y), Child(z, y), NextSibling(x, z).",
};

class RewritePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RewritePropertyTest, UnionIsEquivalentAndAcyclic) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 13;
  opts.attach_window = 1 + GetParam() % 5;
  opts.alphabet = {"a", "b", "c"};
  Document doc(RandomTree(&rng, opts));
  for (const char* text : kRewriteInputs) {
    ConjunctiveQuery input = MustParse(text);
    Result<RewriteOutput> rewritten = RewriteToAcyclicUnion(input);
    ASSERT_TRUE(rewritten.ok()) << text << ": "
                                << rewritten.status().ToString();
    for (const ConjunctiveQuery& q : rewritten.value().queries) {
      EXPECT_TRUE(IsAcyclicOutput(q)) << text << " -> " << q.ToString();
    }
    Result<TupleSet> original = NaiveEvaluateCq(input, doc);
    ASSERT_TRUE(original.ok());
    Result<TupleSet> union_result = EvalUnion(rewritten.value().queries, doc);
    ASSERT_TRUE(union_result.ok());
    EXPECT_EQ(union_result.value(), original.value()) << text;
  }
}

TEST_P(RewritePropertyTest, LazyVariantIsEquivalentToo) {
  Rng rng(500 + GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 13;
  opts.attach_window = 1 + GetParam() % 5;
  opts.alphabet = {"a", "b", "c"};
  Document doc(RandomTree(&rng, opts));
  for (const char* text : kRewriteInputs) {
    ConjunctiveQuery input = MustParse(text);
    Result<RewriteOutput> rewritten = RewriteToAcyclicUnionLazy(input);
    ASSERT_TRUE(rewritten.ok()) << text << ": "
                                << rewritten.status().ToString();
    for (const ConjunctiveQuery& q : rewritten.value().queries) {
      EXPECT_TRUE(IsAcyclicOutput(q)) << text << " -> " << q.ToString();
    }
    Result<TupleSet> original = NaiveEvaluateCq(input, doc);
    ASSERT_TRUE(original.ok());
    Result<TupleSet> union_result = EvalUnion(rewritten.value().queries, doc);
    ASSERT_TRUE(union_result.ok());
    EXPECT_EQ(union_result.value(), original.value()) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewritePropertyTest, ::testing::Range(0, 8));

TEST(LazyRewriteTest, ExploresFarFewerStatesThanEager) {
  // A star-join with 4 leaves: eager enumerates ordered-Bell(5) = 541 weak
  // orders; the lazy variant only branches where Table 1 forces it.
  ConjunctiveQuery q = MustParse(
      "Q() :- Child+(x, y1), Child+(x, y2), Child+(x, y3), Child+(x, y4), "
      "Lab_a(y1), Lab_b(y2), Lab_a(y3), Lab_b(y4).");
  Result<RewriteOutput> eager = RewriteToAcyclicUnion(q);
  Result<RewriteOutput> lazy = RewriteToAcyclicUnionLazy(q);
  ASSERT_TRUE(eager.ok());
  ASSERT_TRUE(lazy.ok());
  EXPECT_EQ(eager.value().order_types_considered, 541);
  EXPECT_LT(lazy.value().order_types_considered,
            eager.value().order_types_considered);
}

TEST(LazyRewriteTest, StarAtomsSplitOnlyOnDemand) {
  // A pure star chain has no in-degree-2 conflicts: the lazy variant keeps
  // the R* atoms intact and returns a single disjunct.
  ConjunctiveQuery q =
      MustParse("Q(z) :- Child*(x, y), Child*(y, z), Lab_a(x).");
  Result<RewriteOutput> lazy = RewriteToAcyclicUnionLazy(q);
  ASSERT_TRUE(lazy.ok());
  EXPECT_EQ(lazy.value().queries.size(), 1u);
  EXPECT_EQ(lazy.value().order_types_considered, 1);
  // The eager variant pays the full enumeration for the same query.
  EXPECT_EQ(RewriteToAcyclicUnion(q).value().order_types_considered, 13);
}

TEST(RewriteTest, UnsatisfiableInputYieldsEmptyUnion) {
  ConjunctiveQuery q =
      MustParse("Q() :- NextSibling(x, z), NextSibling(y, z), Child(x, y).");
  Result<RewriteOutput> r = RewriteToAcyclicUnion(q);
  ASSERT_TRUE(r.ok());
  // Every order type dies in Table 1 or the cyclicity checks.
  EXPECT_TRUE(r.value().queries.empty());
}

TEST(RewriteTest, OrderTypeCountIsOrderedBell) {
  // 1 var -> 1; 2 vars -> 3; 3 vars -> 13 ordered set partitions.
  ConjunctiveQuery q1 = MustParse("Q() :- Lab_a(x).");
  EXPECT_EQ(RewriteToAcyclicUnion(q1).value().order_types_considered, 1);
  ConjunctiveQuery q2 = MustParse("Q() :- Child(x, y).");
  EXPECT_EQ(RewriteToAcyclicUnion(q2).value().order_types_considered, 3);
  ConjunctiveQuery q3 = MustParse("Q() :- Child(x, y), Child(y, z).");
  EXPECT_EQ(RewriteToAcyclicUnion(q3).value().order_types_considered, 13);
}

TEST(RewriteTest, RejectsUnsupportedAxes) {
  ConjunctiveQuery q = MustParse("Q() :- first-child(x, y).");
  EXPECT_FALSE(RewriteToAcyclicUnion(q).ok());
}

class RewriteCnsTest : public ::testing::TestWithParam<int> {};

TEST_P(RewriteCnsTest, ChildNextSiblingSpecialCaseIsEquivalent) {
  Rng rng(300 + GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 15;
  opts.alphabet = {"a", "b"};
  Document doc(RandomTree(&rng, opts));
  const char* kInputs[] = {
      "Q() :- Child(x, z), Child(y, z), Lab_a(x).",   // forces x = y
      "Q() :- Child(x, z), NextSibling(y, z).",
      "Q() :- NextSibling(x, z), NextSibling(y, z), Lab_a(x), Lab_b(y).",
      "Q(z) :- Child(x, y), Child(x, z), NextSibling(y, z).",
      "Q() :- Child(x, y), NextSibling(y, z), Child(x, z).",
      "Q() :- NextSibling(x, y), NextSibling(y, x).",  // unsat cycle
      "Q(x) :- parent(x, y), Lab_a(y).",
  };
  for (const char* text : kInputs) {
    ConjunctiveQuery input = MustParse(text);
    Result<std::optional<ConjunctiveQuery>> rewritten =
        RewriteChildNextSibling(input);
    ASSERT_TRUE(rewritten.ok()) << text << ": "
                                << rewritten.status().ToString();
    Result<TupleSet> original = NaiveEvaluateCq(input, doc);
    ASSERT_TRUE(original.ok());
    if (!rewritten.value().has_value()) {
      EXPECT_TRUE(original.value().empty()) << text;
      continue;
    }
    EXPECT_TRUE(IsAcyclicOutput(*rewritten.value()))
        << text << " -> " << rewritten.value()->ToString();
    Result<TupleSet> after = NaiveEvaluateCq(*rewritten.value(), doc);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value(), original.value()) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteCnsTest, ::testing::Range(0, 8));

TEST(RewriteCnsTest, RejectsTransitiveAxes) {
  ConjunctiveQuery q = MustParse("Q() :- Child+(x, y).");
  EXPECT_FALSE(RewriteChildNextSibling(q).ok());
}

}  // namespace
}  // namespace cq
}  // namespace treeq
