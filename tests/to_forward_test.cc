#include "xpath/to_forward.h"

#include <gtest/gtest.h>

#include <functional>

#include "tree/document.h"
#include "tree/generator.h"
#include "util/random.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace treeq {
namespace xpath {
namespace {

std::unique_ptr<PathExpr> MustParse(const std::string& text) {
  Result<std::unique_ptr<PathExpr>> p = ParseXPath(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.status().ToString();
  return std::move(p).value();
}

TEST(XPathToCqTest, BuildsContextAndResultVars) {
  auto p = MustParse("a/b[c]");
  Result<XPathCq> cq = ConjunctiveXPathToCq(*p);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_EQ(cq.value().query.head_vars().size(), 2u);
  EXPECT_EQ(cq.value().query.head_vars()[0], cq.value().context_var);
  EXPECT_EQ(cq.value().query.head_vars()[1], cq.value().result_var);
  // ctx, a-node, b-node, c-node.
  EXPECT_EQ(cq.value().query.num_vars(), 4);
  EXPECT_EQ(cq.value().query.axis_atoms().size(), 3u);
  EXPECT_EQ(cq.value().query.label_atoms().size(), 3u);
}

TEST(XPathToCqTest, RejectsNonConjunctive) {
  EXPECT_FALSE(ConjunctiveXPathToCq(*MustParse("a | b")).ok());
  EXPECT_FALSE(ConjunctiveXPathToCq(*MustParse("a[b or c]")).ok());
  EXPECT_FALSE(ConjunctiveXPathToCq(*MustParse("a[not(b)]")).ok());
}

class ToForwardPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ToForwardPropertyTest, ForwardQueryIsEquivalentFromRoot) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 25;
  opts.attach_window = 1 + GetParam() % 6;
  opts.alphabet = {"a", "b", "c"};
  Document doc(RandomTree(&rng, opts));

  const char* kQueries[] = {
      // Pure forward queries should stay equivalent.
      "descendant::a/b",
      "descendant::a[b]/descendant::c",
      // Backward axes to eliminate.
      "descendant::b/parent::a",
      "descendant::c/ancestor::a",
      "descendant::b[parent::a]",
      "descendant::a/preceding-sibling::b",
      "descendant::c/ancestor::*[b]",
      "descendant::b/preceding::a",
      "descendant::a[b]/ancestor::c",
      // Mixed chains.
      "descendant::a/parent::b/descendant::c",
  };
  for (const char* text : kQueries) {
    std::unique_ptr<PathExpr> p = MustParse(text);
    Result<std::unique_ptr<PathExpr>> fwd = ToForwardXPath(*p);
    ASSERT_TRUE(fwd.ok()) << text << ": " << fwd.status().ToString();
    EXPECT_TRUE(IsForward(*fwd.value())) << text;
    NodeSet original = EvalQueryFromRoot(doc, *p).value();
    NodeSet rewritten = EvalQueryFromRoot(doc, *fwd.value()).value();
    EXPECT_EQ(rewritten.ToVector(), original.ToVector())
        << text << "\n -> " << ToString(*fwd.value());
  }
}

// Random conjunctive queries over all axes (forward and backward, with
// nested conjunctive qualifiers): the rewritten forward query must select
// the same nodes from the root.
TEST_P(ToForwardPropertyTest, RandomConjunctiveQueriesRewriteEquivalently) {
  Rng rng(300 + GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 18;
  opts.attach_window = 1 + GetParam() % 4;
  opts.alphabet = {"a", "b"};
  Document doc(RandomTree(&rng, opts));

  static const Axis kAxes[] = {
      Axis::kChild,        Axis::kParent,
      Axis::kDescendant,   Axis::kAncestor,
      Axis::kDescendantOrSelf, Axis::kAncestorOrSelf,
      Axis::kNextSibling,  Axis::kPrevSibling,
      Axis::kFollowingSibling, Axis::kPrecedingSibling,
      Axis::kFollowing,    Axis::kPreceding,
      Axis::kSelf,
  };
  // Generates a random conjunctive path of bounded size.
  std::function<std::unique_ptr<PathExpr>(int)> gen =
      [&](int depth) -> std::unique_ptr<PathExpr> {
    auto step = PathExpr::MakeStep(kAxes[rng.Uniform(0, 12)]);
    if (rng.Bernoulli(0.6)) {
      step->qualifiers.push_back(
          Qualifier::MakeLabel(rng.Bernoulli(0.5) ? "a" : "b"));
    }
    if (depth > 0 && rng.Bernoulli(0.4)) {
      step->qualifiers.push_back(Qualifier::MakePath(gen(depth - 1)));
    }
    if (depth > 0 && rng.Bernoulli(0.5)) {
      return PathExpr::MakeSeq(std::move(step), gen(depth - 1));
    }
    return step;
  };

  for (int trial = 0; trial < 15; ++trial) {
    std::unique_ptr<PathExpr> p = gen(2);
    Result<std::unique_ptr<PathExpr>> fwd = ToForwardXPath(*p);
    ASSERT_TRUE(fwd.ok()) << ToString(*p) << ": "
                          << fwd.status().ToString();
    EXPECT_TRUE(IsForward(*fwd.value())) << ToString(*p);
    NodeSet original = EvalQueryFromRoot(doc, *p).value();
    NodeSet rewritten = EvalQueryFromRoot(doc, *fwd.value()).value();
    EXPECT_EQ(rewritten.ToVector(), original.ToVector())
        << ToString(*p) << "\n -> " << ToString(*fwd.value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ToForwardPropertyTest, ::testing::Range(0, 8));

TEST(ToForwardTest, UnsatisfiableAtRootYieldsNeverMatching) {
  // The root has no parent: a query demanding one selects nothing.
  auto p = MustParse("parent::a");
  Result<std::unique_ptr<PathExpr>> fwd = ToForwardXPath(*p);
  ASSERT_TRUE(fwd.ok()) << fwd.status().ToString();
  Document doc(Chain(4, "a"));
  EXPECT_TRUE(EvalQueryFromRoot(doc, *fwd.value()).value().empty());
}

TEST(ToForwardTest, RejectsNonConjunctive) {
  EXPECT_FALSE(ToForwardXPath(*MustParse("a[not(b)]")).ok());
}

}  // namespace
}  // namespace xpath
}  // namespace treeq
