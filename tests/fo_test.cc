#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fo/ast.h"
#include "fo/corollary52.h"
#include "fo/evaluator.h"
#include "fo/parser.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "util/random.h"

namespace treeq {
namespace fo {
namespace {

std::unique_ptr<Formula> MustParse(const std::string& text) {
  Result<std::unique_ptr<Formula>> f = ParseFo(text);
  EXPECT_TRUE(f.ok()) << text << ": " << f.status().ToString();
  return std::move(f).value();
}

TEST(FoParserTest, ParsesConnectivesAndQuantifiers) {
  auto f = MustParse(
      "exists x . exists y . (Child(x, y) and (Lab_a(y) or not Lab_b(y)))");
  EXPECT_EQ(f->kind, Formula::Kind::kExists);
  EXPECT_EQ(f->left->kind, Formula::Kind::kExists);
  EXPECT_EQ(f->left->left->kind, Formula::Kind::kAnd);
  EXPECT_TRUE(FreeVariables(*f).empty());
  EXPECT_FALSE(IsPositive(*f));  // contains not
}

TEST(FoParserTest, QuantifierScopesMaximally) {
  // "exists x . A and B" is exists x . (A and B).
  auto f = MustParse("exists x . Lab_a(x) and Lab_b(x)");
  ASSERT_EQ(f->kind, Formula::Kind::kExists);
  EXPECT_EQ(f->left->kind, Formula::Kind::kAnd);
}

TEST(FoParserTest, FreeVariablesInOrder) {
  auto f = MustParse("Child(x, y) and exists z . Child(y, z)");
  EXPECT_EQ(FreeVariables(*f), (std::vector<std::string>{"x", "y"}));
}

TEST(FoParserTest, EqualityAndErrors) {
  auto f = MustParse("exists x . exists y . Child+(x, y) and x = y");
  EXPECT_TRUE(IsPositive(*f));
  EXPECT_FALSE(ParseFo("").ok());
  EXPECT_FALSE(ParseFo("exists x Lab_a(x)").ok());   // missing dot
  EXPECT_FALSE(ParseFo("Unknown(x, y)").ok());
  EXPECT_FALSE(ParseFo("Lab_a(x) extra").ok());
}

TEST(FoParserTest, ToStringRoundTrips) {
  const char* kFormulas[] = {
      "exists x . (Lab_a(x) or Lab_b(x))",
      "forall x . not Child(x, x)",
      "exists x . exists y . (Following(x, y) and x = x)",
  };
  for (const char* text : kFormulas) {
    auto f = MustParse(text);
    auto f2 = MustParse(ToString(*f));
    EXPECT_EQ(ToString(*f2), ToString(*f)) << text;
  }
}

TEST(FoNaiveTest, SentencesOnAChain) {
  Document doc(Chain(5, "a", "b"));  // a b a b a
  EXPECT_TRUE(EvaluateSentenceNaive(
                  *MustParse("exists x . exists y . Child(x, y) and "
                             "Lab_a(x) and Lab_b(y)"),
                  doc)
                  .value());
  EXPECT_FALSE(EvaluateSentenceNaive(
                   *MustParse("exists x . exists y . NextSibling(x, y)"), doc)
                   .value());
  // Universals and negation: every node has at most one child (a chain).
  EXPECT_TRUE(
      EvaluateSentenceNaive(
          *MustParse("forall x . forall y . forall z . (not Child(x, y) or "
                     "not Child(x, z) or y = z)"),
          doc)
          .value());
  EXPECT_FALSE(
      EvaluateSentenceNaive(*MustParse("forall x . Lab_a(x)"), doc).value());
}

TEST(FoNaiveTest, FreeVariablesYieldTuples) {
  Document doc(Chain(4, "a", "b"));
  auto f = MustParse("Child(x, y) and Lab_b(y)");
  Result<cq::TupleSet> r = EvaluateFoNaive(*f, doc);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (cq::TupleSet{{0, 1}, {2, 3}}));
}

TEST(FoNaiveTest, BudgetAborts) {
  Document doc(Chain(40));
  auto f = MustParse(
      "exists a . exists b . exists c . exists d . (Child+(a, b) and "
      "Child+(b, c) and Child+(c, d))");
  const ExecContext budget = ExecContext::WithVisitBudget(100);
  Result<bool> r = EvaluateSentenceNaive(*f, doc, budget);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(DnfTest, CountsDisjunctsMultiplicatively) {
  auto f = MustParse(
      "exists x . ((Lab_a(x) or Lab_b(x)) and (Lab_c(x) or Lab_d(x)))");
  Result<std::vector<cq::ConjunctiveQuery>> cqs = PositiveFoToCqUnion(*f);
  ASSERT_TRUE(cqs.ok());
  EXPECT_EQ(cqs.value().size(), 4u);
}

TEST(DnfTest, ShadowedQuantifiersRenameApart) {
  // The two x's are different variables.
  auto f = MustParse(
      "exists x . (Lab_a(x) and exists x . Lab_b(x))");
  Result<std::vector<cq::ConjunctiveQuery>> cqs = PositiveFoToCqUnion(*f);
  ASSERT_TRUE(cqs.ok());
  ASSERT_EQ(cqs.value().size(), 1u);
  EXPECT_EQ(cqs.value()[0].num_vars(), 2);
}

TEST(DnfTest, RejectsNegation) {
  auto f = MustParse("exists x . not Lab_a(x)");
  EXPECT_FALSE(PositiveFoToCqUnion(*f).ok());
}

// Corollary 5.2 pipeline vs the naive oracle on random trees.
class Cor52AgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(Cor52AgreementTest, PipelineMatchesNaive) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 16;
  opts.attach_window = 1 + GetParam() % 5;
  opts.alphabet = {"a", "b", "c"};
  Document doc(RandomTree(&rng, opts));

  const char* kSentences[] = {
      "exists x . Lab_a(x)",
      "exists x . exists y . Child(x, y) and Lab_b(y)",
      "exists x . exists y . (Child+(x, y) and (Lab_a(y) or Lab_c(y)))",
      "exists x . exists y . exists z . (Child+(x, z) and Child+(y, z) "
      "and Lab_a(x) and Lab_b(y))",
      "exists x . exists y . (Following(x, y) and Lab_c(x))",
      "exists x . (Lab_a(x) and exists y . (NextSibling(x, y) and "
      "Lab_b(y))) or exists z . Lab_zzz(z)",
      "exists x . exists y . Child(x, y) and x = y",  // unsatisfiable
      "exists x . exists y . (Child*(x, y) and Lab_b(y))",
  };
  for (const char* text : kSentences) {
    auto f = MustParse(text);
    ASSERT_TRUE(IsPositive(*f)) << text;
    Result<bool> fast = EvaluateSentencePositive(*f, doc);
    ASSERT_TRUE(fast.ok()) << text << ": " << fast.status().ToString();
    Result<bool> slow = EvaluateSentenceNaive(*f, doc);
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(fast.value(), slow.value()) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Cor52AgreementTest, ::testing::Range(0, 8));

TEST(Cor52Test, StatsReportPipelineShape) {
  auto f = MustParse(
      "exists x . exists y . ((Lab_a(x) or Lab_b(x)) and Child+(x, y))");
  Document doc(Chain(6, "a", "b"));
  Corollary52Stats stats;
  Result<bool> r = EvaluateSentencePositive(*f, doc, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  EXPECT_EQ(stats.cq_disjuncts, 2);
  // The pipeline short-circuits at the first satisfiable acyclic disjunct.
  EXPECT_GE(stats.acyclic_disjuncts, 1);
}

TEST(Cor52Test, RejectsNonSentences) {
  auto f = MustParse("Lab_a(x)");
  Document doc(Chain(2));
  EXPECT_FALSE(EvaluateSentencePositive(*f, doc).ok());
}

}  // namespace
}  // namespace fo
}  // namespace treeq
