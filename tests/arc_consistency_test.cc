#include "cq/arc_consistency.h"

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

// A small pool of queries mixing tree-shaped, cyclic, parallel-edge, and
// unsatisfiable bodies over several signatures.
const char* kQueries[] = {
    "Q() :- Child(x, y), Lab_a(y).",
    "Q() :- Child+(x, y), Child+(y, z), Lab_c(z).",
    "Q() :- Child(x, y), Child(x, z), NextSibling(y, z).",
    "Q() :- Child+(x, z), Child+(y, z), Following(x, y).",
    "Q() :- NextSibling(x, y), NextSibling(y, z), Lab_a(x), Lab_b(z).",
    "Q() :- Child(x, y), NextSibling(x, y).",          // unsatisfiable
    "Q() :- Following(x, y), Following(y, x).",        // unsatisfiable
    "Q() :- Child+(x, y), Lab_a(x), Lab_a(y), NextSibling+(x, y).",
    "Q() :- descendant-or-self(x, y), Lab_b(y).",
    "Q() :- self(x, x), Lab_a(x).",
};

class AcPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AcPropertyTest, OutputIsArcConsistentOrEmpty) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 25;
  opts.attach_window = 1 + GetParam() % 6;
  Document doc(RandomTree(&rng, opts));
  for (const char* text : kQueries) {
    ConjunctiveQuery q = MustParse(text);
    AcResult ac = ComputeMaxArcConsistent(q, doc);
    if (ac.consistent) {
      EXPECT_TRUE(IsArcConsistent(q, doc, ac.theta)) << text;
    } else {
      bool some_empty = false;
      for (const NodeSet& s : ac.theta) some_empty |= s.empty();
      EXPECT_TRUE(some_empty) << text;
    }
  }
}

TEST_P(AcPropertyTest, HornEncodingMatchesDirect) {
  Rng rng(50 + GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 20;
  Document doc(RandomTree(&rng, opts));
  for (const char* text : kQueries) {
    ConjunctiveQuery q = MustParse(text);
    AcResult direct =
        ComputeMaxArcConsistent(q, doc, AcImplementation::kDirect);
    AcResult horn =
        ComputeMaxArcConsistent(q, doc, AcImplementation::kHornEncoding);
    ASSERT_EQ(direct.consistent, horn.consistent) << text;
    ASSERT_EQ(direct.theta.size(), horn.theta.size());
    for (size_t x = 0; x < direct.theta.size(); ++x) {
      EXPECT_EQ(direct.theta[x].ToVector(), horn.theta[x].ToVector())
          << text << " var " << x;
    }
  }
}

// The pre-valuation subsumes every consistent valuation (it is maximal):
// each solution value must be a candidate.
TEST_P(AcPropertyTest, SubsumesAllSolutions) {
  Rng rng(100 + GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 15;
  Document doc(RandomTree(&rng, opts));
  for (const char* text : kQueries) {
    ConjunctiveQuery q = MustParse(text);
    // Make every variable a head variable so solutions are full valuations.
    ConjunctiveQuery full = q;
    while (static_cast<int>(full.head_vars().size()) < full.num_vars()) {
      full.AddHeadVar(static_cast<int>(full.head_vars().size()));
    }
    AcResult ac = ComputeMaxArcConsistent(q, doc);
    Result<TupleSet> solutions = NaiveEvaluateCq(full, doc);
    ASSERT_TRUE(solutions.ok());
    for (const std::vector<NodeId>& sol : solutions.value()) {
      for (int x = 0; x < q.num_vars(); ++x) {
        EXPECT_TRUE(ac.theta[x].Contains(sol[x])) << text;
      }
    }
    // And if there is a solution, AC must be consistent.
    if (!solutions.value().empty()) EXPECT_TRUE(ac.consistent) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcPropertyTest, ::testing::Range(0, 6));

// Example 6.1 of the paper, verbatim: the Boolean query
//   q <- R(x, y), S(x, y)
// over the abstract database R = {(1,2), (3,4)}, S = {(3,2), (1,4)} has the
// arc-consistent pre-valuation Theta(x) = {1,3}, Theta(y) = {2,4}, yet q is
// not satisfiable — arc-consistency does not imply global consistency in
// general, which is what the X-property of Section 6 buys back. (On trees,
// small random instances do not exhibit the gap — the axis relations prune
// aggressively — which is presumably why the paper's own example uses an
// abstract database; the NP-hardness side of Theorem 6.8 manufactures large
// tree gaps via reductions.)
TEST(AcGapTest, PaperExample61GapOnAbstractRelations) {
  const std::vector<std::pair<int, int>> r = {{1, 2}, {3, 4}};
  const std::vector<std::pair<int, int>> s = {{3, 2}, {1, 4}};
  const std::vector<int> domain = {1, 2, 3, 4};

  // The paper's pre-valuation is arc-consistent: every candidate has
  // support in both directions for both atoms.
  const std::vector<int> theta_x = {1, 3};
  const std::vector<int> theta_y = {2, 4};
  auto supported = [](const std::vector<std::pair<int, int>>& rel,
                      const std::vector<int>& xs, const std::vector<int>& ys) {
    for (int v : xs) {
      bool ok = false;
      for (int w : ys) {
        for (const auto& p : rel) ok = ok || (p == std::make_pair(v, w));
      }
      if (!ok) return false;
    }
    for (int w : ys) {
      bool ok = false;
      for (int v : xs) {
        for (const auto& p : rel) ok = ok || (p == std::make_pair(v, w));
      }
      if (!ok) return false;
    }
    return true;
  };
  EXPECT_TRUE(supported(r, theta_x, theta_y));
  EXPECT_TRUE(supported(s, theta_x, theta_y));

  // Yet no single valuation satisfies both atoms.
  bool satisfiable = false;
  for (int v : domain) {
    for (int w : domain) {
      bool in_r = false, in_s = false;
      for (const auto& p : r) in_r = in_r || (p == std::make_pair(v, w));
      for (const auto& p : s) in_s = in_s || (p == std::make_pair(v, w));
      satisfiable = satisfiable || (in_r && in_s);
    }
  }
  EXPECT_FALSE(satisfiable);
}

// On trees the soundness direction of Section 6 always holds: a satisfiable
// query has an arc-consistent pre-valuation.
TEST(AcGapTest, SatisfiableImpliesArcConsistentOnTrees) {
  const char* kCyclicQueries[] = {
      "Q() :- Child+(x, z), Child+(y, z), Following(x, y).",
      "Q() :- Child+(x, y), NextSibling(x, z), Child+(z, y).",
      "Q() :- Child(x, y), Child+(x, z), Following(y, z), Lab_a(y), "
      "Lab_b(z).",
  };
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    RandomTreeOptions opts;
    opts.num_nodes = 12;
    opts.attach_window = 1 + seed % 6;
    Document doc(RandomTree(&rng, opts));
    for (const char* text : kCyclicQueries) {
      ConjunctiveQuery q = MustParse(text);
      AcResult ac = ComputeMaxArcConsistent(q, doc);
      Result<bool> sat = NaiveSatisfiableCq(q, doc);
      ASSERT_TRUE(sat.ok());
      if (sat.value()) EXPECT_TRUE(ac.consistent) << text;
    }
  }
}

TEST(AcTest, InitialRestrictionIsRespected) {
  Document doc(Chain(5));
  ConjunctiveQuery q = MustParse("Q() :- Child+(x, y).");
  PreValuation initial(2, NodeSet::All(5));
  initial[0] = NodeSet::Singleton(5, 3);  // x pinned to node 3
  AcResult ac = ComputeMaxArcConsistent(q, doc, AcImplementation::kDirect,
                                        &initial);
  ASSERT_TRUE(ac.consistent);
  EXPECT_EQ(ac.theta[0].ToVector(), std::vector<NodeId>{3});
  EXPECT_EQ(ac.theta[1].ToVector(), std::vector<NodeId>{4});

  initial[0] = NodeSet::Singleton(5, 4);  // x pinned to the leaf: no y
  AcResult ac2 = ComputeMaxArcConsistent(q, doc, AcImplementation::kDirect,
                                         &initial);
  EXPECT_FALSE(ac2.consistent);
  AcResult ac2h = ComputeMaxArcConsistent(
      q, doc, AcImplementation::kHornEncoding, &initial);
  EXPECT_FALSE(ac2h.consistent);
}

// kDirect against the Horn encoding (the paper's construction) and the
// definition, for one query, with and without an `initial` restriction.
void ExpectDirectMatchesHorn(const ConjunctiveQuery& q, const Document& doc,
                             const PreValuation* initial) {
  AcResult direct =
      ComputeMaxArcConsistent(q, doc, AcImplementation::kDirect, initial);
  AcResult horn = ComputeMaxArcConsistent(
      q, doc, AcImplementation::kHornEncoding, initial);
  ASSERT_EQ(direct.consistent, horn.consistent) << q.ToString();
  ASSERT_EQ(direct.theta.size(), horn.theta.size());
  for (size_t x = 0; x < direct.theta.size(); ++x) {
    EXPECT_EQ(direct.theta[x], horn.theta[x]) << q.ToString() << " var " << x;
  }
  if (direct.consistent) {
    EXPECT_TRUE(IsArcConsistent(q, doc, direct.theta)) << q.ToString();
  }
}

// For every Axis value R: a plain edge R(x, y), a self-loop R(x, x),
// parallel edges R(x, y), R(y, x) and R(x, y), Child+(x, y), and a cycle
// R(x, y), R(y, z), Following(x, z) — each with and without a random
// `initial` restriction, on trees of 12 to 200 nodes.
class AcEveryAxisTest : public ::testing::TestWithParam<int> {};

TEST_P(AcEveryAxisTest, DirectMatchesHornAndDefinition) {
  const int sizes[] = {12, 60, 200};
  Rng rng(300 + GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = sizes[GetParam() % 3];
  opts.attach_window = 1 + GetParam() % 5;
  opts.alphabet = {"a", "b"};
  Document doc(RandomTree(&rng, opts));
  const Tree& t = doc.tree();
  const int n = t.num_nodes();
  for (int a = 0; a < kNumAxes; ++a) {
    const Axis axis = static_cast<Axis>(a);
    std::vector<ConjunctiveQuery> queries(4);
    for (ConjunctiveQuery& q : queries) {
      q.AddVar("x");
      q.AddVar("y");
    }
    queries[0].AddAxisAtom(axis, 0, 1);
    queries[0].AddLabelAtom("a", 1);
    queries[1].AddAxisAtom(axis, 0, 0);
    queries[1].AddLabelAtom("b", 1);
    queries[2].AddAxisAtom(axis, 0, 1);
    queries[2].AddAxisAtom(axis, 1, 0);
    queries[2].AddAxisAtom(axis, 0, 1);
    queries[2].AddAxisAtom(Axis::kDescendant, 0, 1);
    queries[3].AddVar("z");
    queries[3].AddAxisAtom(axis, 0, 1);
    queries[3].AddAxisAtom(axis, 1, 2);
    queries[3].AddAxisAtom(Axis::kFollowing, 0, 2);
    queries[3].AddLabelAtom("a", 2);
    for (const ConjunctiveQuery& q : queries) {
      ExpectDirectMatchesHorn(q, doc, nullptr);
      PreValuation initial(q.num_vars(), NodeSet(n));
      for (NodeSet& set : initial) {
        for (NodeId v = 0; v < n; ++v) {
          if (rng.Bernoulli(0.6)) set.Insert(v);
        }
      }
      ExpectDirectMatchesHorn(q, doc, &initial);
    }
  }
}

// Cyclic bodies of each tractable signature (Theorem 6.8's tau_1, tau_2,
// tau_3), where arc consistency needs several propagation rounds.
TEST_P(AcEveryAxisTest, CyclicTauBodiesMatchHorn) {
  const char* kBodies[] = {
      "Q() :- Child+(x, y), Child+(y, z), Child+(x, z), Lab_a(x), Lab_b(z).",
      "Q() :- Child*(x, y), Child+(y, z), Child*(z, x), Lab_b(y).",
      "Q() :- Following(x, y), Following(y, z), Following(x, z), Lab_a(y).",
      "Q() :- Following(x, y), Following(y, x).",
      "Q() :- Child(x, y), Child(x, z), NextSibling(y, z), Lab_a(y), "
      "Lab_b(z).",
      "Q() :- NextSibling+(x, y), NextSibling*(y, z), NextSibling(z, x).",
      "Q() :- Child(x, y), NextSibling+(y, z), Child(x, z), Child(z, w), "
      "FirstChild(x, y).",
  };
  Rng rng(400 + GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 40 + 80 * (GetParam() % 3);
  opts.attach_window = 2 + GetParam() % 4;
  opts.alphabet = {"a", "b"};
  Document doc(RandomTree(&rng, opts));
  const Tree& t = doc.tree();
  for (const char* text : kBodies) {
    ConjunctiveQuery q = MustParse(text);
    ExpectDirectMatchesHorn(q, doc, nullptr);
    PreValuation initial(q.num_vars(), NodeSet::All(t.num_nodes()));
    initial[0] = NodeSet(t.num_nodes());
    for (NodeId v = 0; v < t.num_nodes(); v += 3) initial[0].Insert(v);
    ExpectDirectMatchesHorn(q, doc, &initial);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcEveryAxisTest, ::testing::Range(0, 6));

TEST(AcTest, UnsatisfiableLabelYieldsInconsistent) {
  Document doc(Chain(4, "a"));
  ConjunctiveQuery q = MustParse("Q() :- Lab_missing(x).");
  EXPECT_FALSE(ComputeMaxArcConsistent(q, doc).consistent);
}

}  // namespace
}  // namespace cq
}  // namespace treeq
