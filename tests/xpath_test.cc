#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "datalog/evaluator.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "util/random.h"
#include "xpath/ast.h"
#include "xpath/evaluator.h"
#include "xpath/naive_evaluator.h"
#include "xpath/parser.h"
#include "xpath/to_datalog.h"

namespace treeq {
namespace xpath {
namespace {

std::unique_ptr<PathExpr> MustParse(const std::string& text) {
  Result<std::unique_ptr<PathExpr>> p = ParseXPath(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.status().ToString();
  return std::move(p).value();
}

TEST(XPathParserTest, SugarForms) {
  // bare name = child::name
  auto p = MustParse("a");
  ASSERT_EQ(p->kind, PathExpr::Kind::kStep);
  EXPECT_EQ(p->axis, Axis::kChild);
  ASSERT_EQ(p->qualifiers.size(), 1u);
  EXPECT_EQ(p->qualifiers[0]->kind, Qualifier::Kind::kLabel);
  EXPECT_EQ(p->qualifiers[0]->label, "a");

  auto dot = MustParse(".");
  EXPECT_EQ(dot->axis, Axis::kSelf);

  auto axis = MustParse("descendant::b");
  EXPECT_EQ(axis->axis, Axis::kDescendant);

  auto star = MustParse("following-sibling::*");
  EXPECT_EQ(star->axis, Axis::kFollowingSibling);
  EXPECT_TRUE(star->qualifiers.empty());

  auto paper_alias = MustParse("Child+::b");
  EXPECT_EQ(paper_alias->axis, Axis::kDescendant);
}

TEST(XPathParserTest, SlashesAndUnions) {
  auto seq = MustParse("a/b/c");
  EXPECT_EQ(seq->kind, PathExpr::Kind::kSeq);

  auto dslash = MustParse("a//b");
  // a / (descendant-or-self::* / child::b)
  ASSERT_EQ(dslash->kind, PathExpr::Kind::kSeq);
  EXPECT_EQ(dslash->right->left->axis, Axis::kDescendantOrSelf);

  auto uni = MustParse("a | b | c");
  EXPECT_EQ(uni->kind, PathExpr::Kind::kUnion);

  auto grouped = MustParse("(a | b)/c");
  ASSERT_EQ(grouped->kind, PathExpr::Kind::kSeq);
  EXPECT_EQ(grouped->left->kind, PathExpr::Kind::kUnion);
}

TEST(XPathParserTest, AbsolutePathsAnchorAtContext) {
  auto abs = MustParse("/catalog/product");
  ASSERT_EQ(abs->kind, PathExpr::Kind::kSeq);
  EXPECT_EQ(abs->left->axis, Axis::kSelf);
  EXPECT_EQ(abs->left->qualifiers[0]->label, "catalog");

  auto dabs = MustParse("//b");
  ASSERT_EQ(dabs->kind, PathExpr::Kind::kSeq);
  EXPECT_EQ(dabs->left->axis, Axis::kDescendantOrSelf);
}

TEST(XPathParserTest, Qualifiers) {
  auto p = MustParse("a[b/c and not(lab() = \"x\" or d)][.]");
  ASSERT_EQ(p->kind, PathExpr::Kind::kStep);
  // label test + two bracketed qualifiers
  ASSERT_EQ(p->qualifiers.size(), 3u);
  EXPECT_EQ(p->qualifiers[1]->kind, Qualifier::Kind::kAnd);
  EXPECT_EQ(p->qualifiers[1]->right->kind, Qualifier::Kind::kNot);
  EXPECT_EQ(p->qualifiers[2]->kind, Qualifier::Kind::kPath);
}

TEST(XPathParserTest, Errors) {
  EXPECT_FALSE(ParseXPath("").ok());
  EXPECT_FALSE(ParseXPath("a/").ok());
  EXPECT_FALSE(ParseXPath("a[b").ok());
  EXPECT_FALSE(ParseXPath("a]").ok());
  EXPECT_FALSE(ParseXPath("unknownaxis::b").ok());
  EXPECT_FALSE(ParseXPath("(a").ok());
}

TEST(XPathAstTest, ToStringRoundTrips) {
  const char* kQueries[] = {
      "a/b", "a//b[c]", "descendant::x[lab() = \"y\" or z]",
      "(a | b)/not-a-keyword", "ancestor::*[not(d)]",
  };
  for (const char* text : kQueries) {
    auto p = MustParse(text);
    std::string rendered = ToString(*p);
    auto p2 = MustParse(rendered);
    EXPECT_EQ(ToString(*p2), rendered) << text;
  }
}

TEST(XPathAstTest, SizeAndFragments) {
  auto p = MustParse("a[b and not(c)]/d");
  EXPECT_GT(PathSize(*p), 4);
  EXPECT_FALSE(IsPositive(*p));
  auto pos = MustParse("a[b or c]/d");
  EXPECT_TRUE(IsPositive(*pos));
  EXPECT_FALSE(IsConjunctive(*pos));
  auto conj = MustParse("a[b]/d");
  EXPECT_TRUE(IsConjunctive(*conj));
  EXPECT_TRUE(IsForward(*conj));
  auto back = MustParse("a/parent::b");
  EXPECT_FALSE(IsForward(*back));
}

// -- Evaluation ------------------------------------------------------------

TEST(XPathEvalTest, CatalogQueries) {
  Rng rng(5);
  CatalogOptions copts;
  copts.num_products = 25;
  Document doc(CatalogDocument(&rng, copts));
  const Tree& t = doc.tree();

  NodeSet products =
      EvalQueryFromRoot(doc, *MustParse("/catalog/product")).value();
  EXPECT_EQ(products.size(),
            (int)t.NodesWithLabel(t.label_table().Lookup("product")).size());

  // Products with a 5-star review.
  NodeSet top = EvalQueryFromRoot(
      doc, *MustParse("/catalog/product[reviews/review/rating5]")).value();
  for (NodeId p : top.ToVector()) {
    EXPECT_TRUE(t.HasLabel(p, "product"));
  }
  // Each selected product really has a rating5 descendant.
  LabelId rating5 = t.label_table().Lookup("rating5");
  if (rating5 != kNullLabel) {
    NodeSet with5(t.num_nodes());
    for (NodeId r : t.NodesWithLabel(rating5)) {
      NodeId p = t.parent(t.parent(t.parent(r)));  // rating<-review<-reviews<-product
      with5.Insert(p);
    }
    EXPECT_EQ(top.ToVector(), with5.ToVector());
  }

  // Negation: products without any reviews.
  NodeSet no_reviews = EvalQueryFromRoot(
      doc, *MustParse("/catalog/product[not(reviews)]")).value();
  NodeSet with_reviews = EvalQueryFromRoot(
      doc, *MustParse("/catalog/product[reviews]")).value();
  EXPECT_EQ(no_reviews.size() + with_reviews.size(), products.size());
}

TEST(XPathEvalTest, InverseAxes) {
  Document doc(Chain(5, "a", "b"));
  // Parents of b nodes.
  NodeSet parents =
      EvalQueryFromRoot(doc, *MustParse("//b/parent::*")).value();
  EXPECT_EQ(parents.ToVector(), (std::vector<NodeId>{0, 2}));
  NodeSet ancestors =
      EvalQueryFromRoot(doc, *MustParse("//b/ancestor::a")).value();
  EXPECT_EQ(ancestors.ToVector(), (std::vector<NodeId>{0, 2}));
}

// Random query generator for the agreement property tests.
class QueryGen {
 public:
  explicit QueryGen(Rng* rng) : rng_(rng) {}

  std::unique_ptr<PathExpr> GenPath(int depth) {
    int pick = static_cast<int>(rng_->Uniform(0, depth <= 0 ? 0 : 9));
    if (pick <= 5) {  // step
      auto step = PathExpr::MakeStep(RandomAxis());
      if (depth > 0 && rng_->Bernoulli(0.5)) {
        step->qualifiers.push_back(GenQual(depth - 1));
      }
      if (rng_->Bernoulli(0.6)) {
        step->qualifiers.push_back(Qualifier::MakeLabel(RandomLabel()));
      }
      return step;
    }
    if (pick <= 8) {
      return PathExpr::MakeSeq(GenPath(depth - 1), GenPath(depth - 1));
    }
    return PathExpr::MakeUnion(GenPath(depth - 1), GenPath(depth - 1));
  }

  std::unique_ptr<Qualifier> GenQual(int depth) {
    int pick = static_cast<int>(rng_->Uniform(0, depth <= 0 ? 1 : 7));
    switch (pick) {
      case 0:
      case 1:
        return Qualifier::MakeLabel(RandomLabel());
      case 2:
      case 3:
      case 4:
        return Qualifier::MakePath(GenPath(depth - 1));
      case 5:
        return Qualifier::MakeAnd(GenQual(depth - 1), GenQual(depth - 1));
      case 6:
        return Qualifier::MakeOr(GenQual(depth - 1), GenQual(depth - 1));
      default:
        return Qualifier::MakeNot(GenQual(depth - 1));
    }
  }

 private:
  Axis RandomAxis() {
    static const Axis kAxes[] = {
        Axis::kSelf,          Axis::kChild,
        Axis::kParent,        Axis::kDescendant,
        Axis::kAncestor,      Axis::kDescendantOrSelf,
        Axis::kAncestorOrSelf, Axis::kNextSibling,
        Axis::kPrevSibling,   Axis::kFollowingSibling,
        Axis::kPrecedingSibling, Axis::kFollowing,
        Axis::kPreceding,
    };
    return kAxes[rng_->Uniform(0, std::size(kAxes) - 1)];
  }

  std::string RandomLabel() {
    static const char* kLabels[] = {"a", "b", "c"};
    return kLabels[rng_->Uniform(0, 2)];
  }

  Rng* rng_;
};

class XPathAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(XPathAgreementTest, SetAtATimeMatchesNaiveSemantics) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 25;
  opts.attach_window = 1 + GetParam() % 5;
  Document doc(RandomTree(&rng, opts));
  const Tree& t = doc.tree();
  QueryGen gen(&rng);

  for (int trial = 0; trial < 30; ++trial) {
    std::unique_ptr<PathExpr> p = gen.GenPath(3);
    // From the root.
    NodeSet fast = EvalQueryFromRoot(doc, *p).value();
    const ExecContext root_budget = ExecContext::WithVisitBudget(50'000'000);
    Result<NodeSet> slow =
        NaiveEvalPath(doc, *p, t.root(), /*stats=*/nullptr, root_budget);
    ASSERT_TRUE(slow.ok()) << ToString(*p);
    EXPECT_EQ(fast.ToVector(), slow.value().ToVector()) << ToString(*p);
    // From an arbitrary context node.
    NodeId ctx = static_cast<NodeId>(rng.Uniform(0, t.num_nodes() - 1));
    NodeSet fast_ctx =
        EvalPath(doc, *p, NodeSet::Singleton(t.num_nodes(), ctx)).value();
    const ExecContext ctx_budget = ExecContext::WithVisitBudget(50'000'000);
    Result<NodeSet> slow_ctx =
        NaiveEvalPath(doc, *p, ctx, /*stats=*/nullptr, ctx_budget);
    ASSERT_TRUE(slow_ctx.ok());
    EXPECT_EQ(fast_ctx.ToVector(), slow_ctx.value().ToVector())
        << ToString(*p) << " ctx=" << ctx;
  }
}

TEST_P(XPathAgreementTest, DatalogTranslationMatchesEvaluator) {
  Rng rng(100 + GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 20;
  Document doc(RandomTree(&rng, opts));
  QueryGen gen(&rng);

  int translated = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::unique_ptr<PathExpr> p = gen.GenPath(3);
    if (!IsPositive(*p)) continue;
    ++translated;
    Result<datalog::Program> program = XPathToDatalog(*p);
    ASSERT_TRUE(program.ok()) << ToString(*p) << ": "
                              << program.status().ToString();
    Result<NodeSet> via_datalog =
        datalog::EvaluateDatalog(program.value(), doc);
    ASSERT_TRUE(via_datalog.ok()) << via_datalog.status().ToString();
    NodeSet direct = EvalQueryFromRoot(doc, *p).value();
    EXPECT_EQ(via_datalog.value().ToVector(), direct.ToVector())
        << ToString(*p);
  }
  EXPECT_GT(translated, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XPathAgreementTest, ::testing::Range(0, 6));

TEST(ToDatalogTest, RejectsNegation) {
  auto p = MustParse("a[not(b)]");
  Result<datalog::Program> program = XPathToDatalog(*p);
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kUnsupported);
}

TEST(ToDatalogTest, OutputSizeLinearInQuery) {
  auto small = MustParse("a/b[c]");
  auto big = MustParse("a/b[c]/a/b[c]/a/b[c]/a/b[c]");
  int s = XPathToDatalog(*small).value().SizeInAtoms();
  int b = XPathToDatalog(*big).value().SizeInAtoms();
  EXPECT_LE(b, 5 * s);
}

TEST(NaiveEvalTest, BudgetAborts) {
  Document doc(Chain(30));
  const Tree& t = doc.tree();
  auto p = MustParse(
      "descendant::*/descendant::*/descendant::*/descendant::*");
  const ExecContext budget = ExecContext::WithVisitBudget(20);
  Result<NodeSet> r = NaiveEvalPath(doc, *p, t.root(), /*stats=*/nullptr,
                                    budget);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace xpath
}  // namespace treeq
