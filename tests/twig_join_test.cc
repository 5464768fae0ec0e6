#include "cq/twig_join.h"

#include <gtest/gtest.h>

#include "cq/naive.h"
#include "tree/generator.h"
#include "util/random.h"

namespace treeq {
namespace cq {
namespace {

TwigPattern PathPattern(const std::vector<std::string>& labels, Axis edge) {
  TwigPattern p;
  for (size_t i = 0; i < labels.size(); ++i) {
    TwigPatternNode node;
    node.label = labels[i];
    node.parent = static_cast<int>(i) - 1;
    node.edge = edge;
    p.nodes.push_back(node);
  }
  return p;
}

TEST(TwigPatternTest, ValidationAndShape) {
  TwigPattern p = PathPattern({"a", "b", "c"}, Axis::kDescendant);
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_TRUE(p.IsPath());
  EXPECT_EQ(p.Leaves(), std::vector<int>{2});
  EXPECT_EQ(p.Children(0), std::vector<int>{1});

  TwigPattern bad;
  bad.nodes.push_back({"a", Axis::kDescendant, 0});  // root with parent 0
  EXPECT_FALSE(bad.Validate().ok());

  TwigPattern bad_edge = PathPattern({"a", "b"}, Axis::kFollowing);
  EXPECT_FALSE(bad_edge.Validate().ok());
}

TEST(TwigPatternTest, ToConjunctiveQuery) {
  TwigPattern p = PathPattern({"a", "b"}, Axis::kChild);
  ConjunctiveQuery q = p.ToConjunctiveQuery();
  EXPECT_EQ(q.num_vars(), 2);
  EXPECT_EQ(q.head_vars().size(), 2u);
  EXPECT_EQ(q.axis_atoms()[0].axis, Axis::kChild);
  EXPECT_TRUE(q.IsTreeShaped());
}

TupleSet BruteForce(const TwigPattern& p, const Document& doc) {
  Result<TupleSet> r = NaiveEvaluateCq(p.ToConjunctiveQuery(), doc);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

TEST(TwigStackTest, PathOnChain) {
  Document doc(Chain(6, "a", "b"));  // a b a b a b
  TwigPattern p = PathPattern({"a", "b"}, Axis::kDescendant);
  Result<TupleSet> r = TwigStackJoin(p, doc);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), BruteForce(p, doc));
  EXPECT_EQ(r.value().size(), 3u + 2u + 1u);  // a at 0,2,4 with b below
}

TEST(TwigStackTest, ChildEdgesFiltered) {
  Document doc(Chain(6, "a", "b"));
  TwigPattern p = PathPattern({"a", "b"}, Axis::kChild);
  Result<TupleSet> r = TwigStackJoin(p, doc);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), BruteForce(p, doc));
  EXPECT_EQ(r.value().size(), 3u);  // only immediate pairs
}

TEST(TwigStackTest, BranchingTwigOnCatalog) {
  Rng rng(9);
  CatalogOptions copts;
  copts.num_products = 30;
  Document doc(CatalogDocument(&rng, copts));
  // product[.//rating5][.//comment]
  TwigPattern p;
  p.nodes.push_back({"product", Axis::kDescendant, -1});
  p.nodes.push_back({"rating5", Axis::kDescendant, 0});
  p.nodes.push_back({"comment", Axis::kDescendant, 0});
  ASSERT_TRUE(p.Validate().ok());
  TwigStats stats;
  Result<TupleSet> r = TwigStackJoin(p, doc, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), BruteForce(p, doc));
  EXPECT_GT(stats.intermediate_results, 0u);
}

class TwigAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(TwigAgreementTest, AllThreeAlgorithmsAgreeOnRandomInputs) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 40;
  opts.attach_window = 1 + GetParam() % 8;
  opts.alphabet = {"a", "b", "c"};
  Document doc(RandomTree(&rng, opts));
  const std::string labels[] = {"a", "b", "c"};

  for (int trial = 0; trial < 12; ++trial) {
    // Random twig with 2-5 nodes.
    TwigPattern p;
    int m = 2 + static_cast<int>(rng.Uniform(0, 3));
    for (int i = 0; i < m; ++i) {
      TwigPatternNode node;
      node.label = labels[rng.Uniform(0, 2)];
      node.parent = i == 0 ? -1 : static_cast<int>(rng.Uniform(0, i - 1));
      node.edge = rng.Bernoulli(0.3) ? Axis::kChild : Axis::kDescendant;
      p.nodes.push_back(node);
    }
    ASSERT_TRUE(p.Validate().ok());
    TupleSet expected = BruteForce(p, doc);
    Result<TupleSet> twig = TwigStackJoin(p, doc);
    ASSERT_TRUE(twig.ok()) << p.ToString();
    EXPECT_EQ(twig.value(), expected) << p.ToString();
    Result<TupleSet> binary = TwigByStructuralJoins(p, doc);
    ASSERT_TRUE(binary.ok()) << p.ToString();
    EXPECT_EQ(binary.value(), expected) << p.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwigAgreementTest, ::testing::Range(0, 10));

TEST(TwigStackTest, NoMatchesForMissingLabel) {
  Document doc(Chain(4, "a"));
  TwigPattern p = PathPattern({"a", "zzz"}, Axis::kDescendant);
  Result<TupleSet> r = TwigStackJoin(p, doc);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

TEST(TwigStackTest, SingleNodePattern) {
  Document doc(Chain(5, "a", "b"));
  TwigPattern p = PathPattern({"b"}, Axis::kDescendant);
  Result<TupleSet> r = TwigStackJoin(p, doc);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (TupleSet{{1}, {3}}));
}

TEST(TwigStackTest, SkipsUselessElements) {
  // TwigStack's getNext skips b-elements with no a-descendant: the stack
  // push count stays below the stream sizes on a selective pattern.
  TreeBuilder b;
  NodeId root = b.AddChild(kNullNode, "r");
  // 50 'b' leaves with nothing below, and one b with an 'a' child.
  for (int i = 0; i < 50; ++i) b.AddChild(root, "b");
  NodeId hit = b.AddChild(root, "b");
  b.AddChild(hit, "a");
  Document doc(std::move(b.Finish()).value());
  TwigPattern p = PathPattern({"b", "a"}, Axis::kDescendant);
  TwigStats stats;
  Result<TupleSet> r = TwigStackJoin(p, doc, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 1u);
  EXPECT_LT(stats.intermediate_results, 10u);
}

}  // namespace
}  // namespace cq
}  // namespace treeq
