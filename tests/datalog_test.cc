#include <gtest/gtest.h>

#include <string>

#include "datalog/ast.h"
#include "datalog/evaluator.h"
#include "datalog/grounder.h"
#include "datalog/parser.h"
#include "datalog/tmnf.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "util/random.h"

namespace treeq {
namespace datalog {
namespace {

// Example 3.1: nodes that have an ancestor labeled L.
constexpr const char* kExample31 = R"(
  % P0 marks nodes all of whose... see Example 3.1 of the paper.
  P0(x)  :- Label("L", x).
  P0(x0) :- NextSibling(x0, x), P0(x).
  P(x0)  :- FirstChild(x0, x), P0(x).
  P0(x)  :- P(x).
  ?- P.
)";

TEST(DatalogParserTest, ParsesExample31) {
  Result<Program> p = ParseProgram(kExample31);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p.value().rules().size(), 4u);
  EXPECT_EQ(p.value().query_predicate(), "P");
  EXPECT_EQ(p.value().IntensionalPredicates().size(), 2u);
}

TEST(DatalogParserTest, ToStringRoundTrips) {
  Result<Program> p = ParseProgram(kExample31);
  ASSERT_TRUE(p.ok());
  std::string text = p.value().ToString();
  Result<Program> p2 = ParseProgram(text);
  ASSERT_TRUE(p2.ok()) << p2.status().ToString() << "\n" << text;
  EXPECT_EQ(p2.value().ToString(), text);
}

TEST(DatalogParserTest, LabUnderscoreSyntax) {
  Result<Program> p = ParseProgram("Q(x) :- Lab_foo(x). ?- Q.");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_EQ(p.value().rules()[0].body.size(), 1u);
  EXPECT_EQ(p.value().rules()[0].body[0].label, "foo");
}

TEST(DatalogParserTest, AxisAndBuiltinAtoms) {
  Result<Program> p = ParseProgram(R"(
    Q(x) :- Child+(y, x), Root(y).
    Q(x) :- Leaf(x), LastSibling(x), Dom(x).
    ?- Q.
  )");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const Rule& r0 = p.value().rules()[0];
  EXPECT_EQ(r0.body[0].axis, Axis::kDescendant);
}

TEST(DatalogParserTest, FactRule) {
  Result<Program> p = ParseProgram("Q(x). ?- Q.");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_TRUE(p.value().rules()[0].body.empty());
}

TEST(DatalogParserTest, Errors) {
  EXPECT_FALSE(ParseProgram("").ok());                      // no rules
  EXPECT_FALSE(ParseProgram("Q(x) :- Lab_a(x).").ok());     // no query
  EXPECT_FALSE(ParseProgram("?- Q.").ok());                 // undefined query
  EXPECT_FALSE(ParseProgram("Q(x) :- R(y). ?- Q.").ok());   // head var free
  EXPECT_FALSE(ParseProgram("Q(x) : Lab_a(x). ?- Q.").ok());
  EXPECT_FALSE(ParseProgram("Q(x) :- Undefined(y), Child(x, y). ?- Q.").ok());
}

TEST(TmnfTest, RecognizesForms) {
  Result<Program> p = ParseProgram(kExample31);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(IsTmnf(p.value()));

  Result<Program> q =
      ParseProgram("Q(x) :- Child+(y, x), Lab_a(y). ?- Q.");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(IsTmnf(q.value()));  // Child+ is not a TMNF step relation
}

TEST(TmnfTest, TransformPreservesTmnfPrograms) {
  Result<Program> p = ParseProgram(kExample31);
  ASSERT_TRUE(p.ok());
  Result<Program> t = ToTmnf(p.value());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TRUE(IsTmnf(t.value()));
}

TEST(TmnfTest, RejectsCyclicRuleBodies) {
  Result<Program> p = ParseProgram(
      "Q(x) :- Child(x, y), Child(y, z), Child+(x, z). ?- Q.");
  ASSERT_TRUE(p.ok());
  Result<Program> t = ToTmnf(p.value());
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kUnsupported);
}

TEST(TmnfTest, RejectsParallelEdges) {
  Result<Program> p =
      ParseProgram("Q(x) :- Child(x, y), Child+(x, y). ?- Q.");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(ToTmnf(p.value()).ok());
}

TEST(TmnfTest, SelfAtomsUnifyVariables) {
  Result<Program> p =
      ParseProgram("Q(x) :- self(x, y), Lab_a(y). ?- Q.");
  ASSERT_TRUE(p.ok());
  Result<Program> t = ToTmnf(p.value());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TRUE(IsTmnf(t.value()));
}

Tree AncestorLTree() {
  // root(a) -> b(L) -> c, d ; root -> e
  TreeBuilder b;
  NodeId root = b.AddChild(kNullNode, "a");
  NodeId l = b.AddChild(root, "L");
  b.AddChild(l, "c");
  b.AddChild(l, "d");
  b.AddChild(root, "e");
  Result<Tree> t = b.Finish();
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(DatalogEvalTest, Example31SelectsNodesWithLDescendant) {
  Document doc(AncestorLTree());
  Result<Program> p = ParseProgram(kExample31);
  ASSERT_TRUE(p.ok());
  Result<NodeSet> result = EvaluateDatalog(p.value(), doc);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Following the program text (and its grounding in Example 3.3, which
  // derives P at the root above the L node), P marks the nodes with a
  // *descendant* labeled L — here only the root. (The paper's prose says
  // "ancestor", but its own Example 3.3 trace shows the downward-looking
  // semantics used here.)
  EXPECT_EQ(result.value().ToVector(), (std::vector<NodeId>{0}));
}

TEST(DatalogEvalTest, DerivedAxisProgram) {
  Document doc(AncestorLTree());
  // Same query written directly with Child+.
  Result<Program> p = ParseProgram(
      "Q(x) :- Child+(y, x), Label(\"L\", y). ?- Q.");
  ASSERT_TRUE(p.ok());
  Result<NodeSet> result = EvaluateDatalog(p.value(), doc);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().ToVector(), (std::vector<NodeId>{2, 3}));
}

TEST(DatalogEvalTest, StatsReportSizes) {
  Document doc(AncestorLTree());
  Result<Program> p = ParseProgram(kExample31);
  ASSERT_TRUE(p.ok());
  EvalStats stats;
  Result<NodeSet> result = EvaluateDatalog(p.value(), doc, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.tmnf_rules, 0);
  EXPECT_GT(stats.ground_clauses, 0);
  EXPECT_GE(stats.ground_literals, stats.ground_clauses);
}

// Property test: the Theorem 3.2 pipeline agrees with the naive fixpoint
// oracle on random trees across a suite of programs exercising every
// derived axis and builtin.
class DatalogAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(DatalogAgreementTest, PipelineMatchesNaiveOracle) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 30;
  opts.attach_window = 1 + GetParam() % 6;
  opts.alphabet = {"a", "b", "L"};
  Document doc(RandomTree(&rng, opts));

  const char* kPrograms[] = {
      kExample31,
      "Q(x) :- Child+(y, x), Lab_L(y). ?- Q.",
      "Q(x) :- Child(x, y), Lab_a(y). ?- Q.",
      "Q(x) :- parent(x, y), Lab_b(y). ?- Q.",
      "Q(x) :- ancestor(x, y), Root(y), Leaf(x). ?- Q.",
      "Q(x) :- Child*(x, y), Lab_L(y). ?- Q.",
      "Q(x) :- NextSibling(x, y), Lab_a(y). ?- Q.",
      "Q(x) :- NextSibling+(x, y), Lab_L(y). ?- Q.",
      "Q(x) :- NextSibling*(y, x), Lab_b(y). ?- Q.",
      "Q(x) :- preceding-sibling(x, y), Lab_a(y). ?- Q.",
      "Q(x) :- Following(x, y), Lab_L(y). ?- Q.",
      "Q(x) :- preceding(x, y), Lab_a(y). ?- Q.",
      "Q(x) :- FirstChild(y, x), Lab_a(y). ?- Q.",
      "Q(x) :- LastSibling(x), Lab_b(x). ?- Q.",
      "Q(x) :- FirstSibling(x). ?- Q.",
      "Q(x) :- Dom(x), Leaf(x). ?- Q.",
      // A deeper tree-shaped rule: x with an a-child that has an L-descendant,
      // and x itself following some b node.
      "Q(x) :- Child(x, y), Lab_a(y), Child+(y, z), Lab_L(z),"
      " preceding(x, w), Lab_b(w). ?- Q.",
      // Mutual recursion through derived axes.
      "Even(x) :- Root(x).\n"
      "Odd(x)  :- Child(y, x), Even(y).\n"
      "Even(x) :- Child(y, x), Odd(y).\n"
      "?- Even.",
  };

  for (const char* text : kPrograms) {
    Result<Program> p = ParseProgram(text);
    ASSERT_TRUE(p.ok()) << p.status().ToString() << "\n" << text;
    Result<NodeSet> fast = EvaluateDatalog(p.value(), doc);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString() << "\n" << text;
    Result<NodeSet> slow = EvaluateDatalogNaive(p.value(), doc);
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();
    EXPECT_EQ(fast.value().ToVector(), slow.value().ToVector())
        << "program:\n"
        << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatalogAgreementTest, ::testing::Range(0, 6));

TEST(GrounderTest, RequiresTmnf) {
  Result<Program> p =
      ParseProgram("Q(x) :- Child+(y, x), Lab_a(y). ?- Q.");
  ASSERT_TRUE(p.ok());
  Tree tree = Chain(3);
  EXPECT_FALSE(GroundTmnf(p.value(), tree).ok());
}

TEST(GrounderTest, GroundSizeLinearInProgramAndTree) {
  Result<Program> p = ParseProgram(kExample31);
  ASSERT_TRUE(p.ok());
  Tree small = Chain(10, "a", "L");
  Tree large = Chain(100, "a", "L");
  Result<GroundProgram> gs = GroundTmnf(p.value(), small);
  Result<GroundProgram> gl = GroundTmnf(p.value(), large);
  ASSERT_TRUE(gs.ok());
  ASSERT_TRUE(gl.ok());
  // Clause count scales linearly with the tree (within rounding slack).
  EXPECT_NEAR(static_cast<double>(gl.value().horn.num_clauses()) /
                  gs.value().horn.num_clauses(),
              10.0, 2.0);
}

TEST(ValidateTest, RejectsUnusedVariables) {
  Program p;
  Rule r;
  r.head_pred = "Q";
  r.head_var = 0;
  r.var_names = {"x", "y"};
  r.body = {Atom::MakeLabel("a", 0)};
  p.rules().push_back(r);
  p.set_query_predicate("Q");
  EXPECT_FALSE(p.Validate().ok());
}

}  // namespace
}  // namespace datalog
}  // namespace treeq
