#include "datalog/stratified.h"

#include <gtest/gtest.h>

#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "util/random.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/to_datalog.h"

namespace treeq {
namespace datalog {
namespace {

Program MustParse(const std::string& text) {
  Result<Program> p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

TEST(StratifyTest, AssignsLevels) {
  Program p = MustParse(R"(
    HasB(x)   :- Child+(x, y), Lab_b(y).
    NoB(x)    :- Dom(x), not HasB(x).
    Deep(x)   :- Child(y, x), NoB(y).
    ?- Deep.
  )");
  Result<std::map<std::string, int>> strata = Stratify(p);
  ASSERT_TRUE(strata.ok()) << strata.status().ToString();
  EXPECT_EQ(strata.value().at("HasB"), 0);
  EXPECT_EQ(strata.value().at("NoB"), 1);
  EXPECT_EQ(strata.value().at("Deep"), 1);
}

TEST(StratifyTest, RejectsNegativeCycles) {
  Program p = MustParse(R"(
    P(x) :- Dom(x), not Q(x).
    Q(x) :- Dom(x), not P(x).
    ?- P.
  )");
  Result<std::map<std::string, int>> strata = Stratify(p);
  ASSERT_FALSE(strata.ok());
  EXPECT_EQ(strata.status().code(), StatusCode::kInvalidArgument);
}

TEST(StratifyTest, PositiveRecursionStaysInOneStratum) {
  Program p = MustParse(R"(
    Mark(x) :- Lab_a(x).
    Mark(x) :- Child(y, x), Mark(y).
    ?- Mark.
  )");
  Result<std::map<std::string, int>> strata = Stratify(p);
  ASSERT_TRUE(strata.ok());
  EXPECT_EQ(strata.value().at("Mark"), 0);
}

TEST(AugmentLabelsTest, PreservesStructureAndAddsLabels) {
  Rng rng(3);
  RandomTreeOptions opts;
  opts.num_nodes = 30;
  Tree t = RandomTree(&rng, opts);
  std::map<std::string, NodeSet> annotations;
  NodeSet evens(t.num_nodes());
  for (NodeId v = 0; v < t.num_nodes(); v += 2) evens.Insert(v);
  annotations.emplace("__even", evens);
  Tree augmented = AugmentLabels(t, annotations);
  ASSERT_EQ(augmented.num_nodes(), t.num_nodes());
  for (NodeId v = 0; v < t.num_nodes(); ++v) {
    EXPECT_EQ(augmented.parent(v), t.parent(v));
    EXPECT_EQ(augmented.next_sibling(v), t.next_sibling(v));
    EXPECT_EQ(augmented.HasLabel(v, "__even"), v % 2 == 0);
    for (LabelId l : t.labels(v)) {
      EXPECT_TRUE(augmented.HasLabel(v, t.label_table().Name(l)));
    }
  }
}

TEST(EvaluateStratifiedTest, NodesWithoutBDescendants) {
  // Chain a b a b a: NoB holds at nodes whose subtree below has no b.
  Document doc(Chain(5, "a", "b"));
  Program p = MustParse(R"(
    HasB(x) :- Child+(x, y), Lab_b(y).
    NoB(x)  :- Dom(x), not HasB(x).
    ?- NoB.
  )");
  StratifiedStats stats;
  Result<NodeSet> r = EvaluateStratified(p, doc, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Node 3 (b) has only node 4 (a) below; node 4 is a leaf.
  EXPECT_EQ(r.value().ToVector(), (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(stats.strata, 2);
}

TEST(EvaluateStratifiedTest, PlainProgramsStillWork) {
  Document doc(Chain(4, "a", "b"));
  Program p = MustParse("Q(x) :- Lab_b(x). ?- Q.");
  Result<NodeSet> stratified = EvaluateStratified(p, doc);
  Result<NodeSet> plain = EvaluateDatalog(p, doc);
  ASSERT_TRUE(stratified.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(stratified.value().ToVector(), plain.value().ToVector());
}

TEST(EvaluateStratifiedTest, DoubleNegation) {
  Document doc(Chain(6, "a", "b"));
  Program p = MustParse(R"(
    HasB(x)  :- Child+(x, y), Lab_b(y).
    NoB(x)   :- Dom(x), not HasB(x).
    HasB2(x) :- Dom(x), not NoB(x).
    ?- HasB2.
  )");
  Result<NodeSet> direct = EvaluateStratified(p, doc);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  Program positive = MustParse(R"(
    HasB(x) :- Child+(x, y), Lab_b(y).
    ?- HasB.
  )");
  Result<NodeSet> expected = EvaluateDatalog(positive, doc);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(direct.value().ToVector(), expected.value().ToVector());
}

// Full Core XPath (with negation) through the stratified pipeline must
// match the set-at-a-time evaluator — the Section 3 claim, engine-style.
class StratifiedXPathTest : public ::testing::TestWithParam<int> {};

TEST_P(StratifiedXPathTest, NegatedXPathMatchesEvaluator) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 22;
  opts.attach_window = 1 + GetParam() % 5;
  opts.alphabet = {"a", "b", "c"};
  Document doc(RandomTree(&rng, opts));

  const char* kQueries[] = {
      "//a[not(b)]",
      "//a[not(descendant::b)]/c",
      "//b[not(c) and not(parent::a)]",
      "//a[not(b[not(c)])]",
      "descendant::*[not(lab() = \"a\") and not(lab() = \"b\")]",
      "//a[not(following::b)]",
      "//c[not(.//a[not(b)])]",
  };
  for (const char* text : kQueries) {
    auto p = std::move(xpath::ParseXPath(text)).value();
    Result<Program> program = xpath::XPathToStratifiedDatalog(*p);
    ASSERT_TRUE(program.ok()) << text << ": "
                              << program.status().ToString();
    Result<NodeSet> via_datalog = EvaluateStratified(program.value(), doc);
    ASSERT_TRUE(via_datalog.ok()) << text << ": "
                                  << via_datalog.status().ToString();
    NodeSet direct = xpath::EvalQueryFromRoot(doc, *p).value();
    EXPECT_EQ(via_datalog.value().ToVector(), direct.ToVector()) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StratifiedXPathTest, ::testing::Range(0, 8));

TEST(StratifiedXPathTest, PositiveQueriesProduceSameProgram) {
  auto p = std::move(xpath::ParseXPath("//a[b]/c")).value();
  auto plain = std::move(xpath::XPathToDatalog(*p)).value();
  auto strat = std::move(xpath::XPathToStratifiedDatalog(*p)).value();
  EXPECT_EQ(plain.ToString(), strat.ToString());
}

TEST(StratifiedXPathTest, PlainEvaluatorRejectsNegatedPrograms) {
  auto p = std::move(xpath::ParseXPath("//a[not(b)]")).value();
  auto program = std::move(xpath::XPathToStratifiedDatalog(*p)).value();
  Document doc(Chain(3, "a", "b"));
  EXPECT_FALSE(EvaluateDatalog(program, doc).ok());
}

}  // namespace
}  // namespace datalog
}  // namespace treeq
