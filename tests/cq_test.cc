#include <gtest/gtest.h>

#include "cq/ast.h"
#include "cq/naive.h"
#include "cq/parser.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "util/random.h"

namespace treeq {
namespace cq {
namespace {

ConjunctiveQuery MustParse(const std::string& text) {
  Result<ConjunctiveQuery> q = ParseCq(text);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
  return std::move(q).value();
}

TEST(CqParserTest, ParsesHeadsAndAtoms) {
  ConjunctiveQuery q = MustParse(
      "Q(x, z) :- Child+(x, y), NextSibling(y, z), Lab_a(y), "
      "Label(\"b c\", z).");
  EXPECT_EQ(q.num_vars(), 3);
  EXPECT_EQ(q.head_vars().size(), 2u);
  EXPECT_EQ(q.axis_atoms().size(), 2u);
  EXPECT_EQ(q.axis_atoms()[0].axis, Axis::kDescendant);
  ASSERT_EQ(q.label_atoms().size(), 2u);
  EXPECT_EQ(q.label_atoms()[1].label, "b c");
}

TEST(CqParserTest, BooleanQuery) {
  ConjunctiveQuery q = MustParse("Q() :- Following(x, y), Lab_a(x).");
  EXPECT_TRUE(q.IsBoolean());
  EXPECT_EQ(q.num_vars(), 2);
}

TEST(CqParserTest, Errors) {
  EXPECT_FALSE(ParseCq("").ok());
  EXPECT_FALSE(ParseCq("Q(x)").ok());
  EXPECT_FALSE(ParseCq("Q(x) :- Unknown(x, y).").ok());
  EXPECT_FALSE(ParseCq("Q(x) :- Lab_a(x)").ok());  // missing final dot
  EXPECT_FALSE(ParseCq("Q(x) :- Lab_a(x). extra").ok());
}

TEST(CqParserTest, ToStringRoundTrips) {
  ConjunctiveQuery q =
      MustParse("Q(x) :- Child(x, y), Lab_a(y), following(y, z).");
  ConjunctiveQuery q2 = MustParse(q.ToString());
  EXPECT_EQ(q2.ToString(), q.ToString());
}

TEST(CqAstTest, StructureChecks) {
  ConjunctiveQuery path = MustParse("Q(x) :- Child(x, y), Child(y, z).");
  EXPECT_TRUE(path.IsConnected());
  EXPECT_TRUE(path.IsTreeShaped());

  ConjunctiveQuery cycle = MustParse(
      "Q(x) :- Child(x, y), Child(y, z), Child+(x, z).");
  EXPECT_TRUE(cycle.IsConnected());
  EXPECT_FALSE(cycle.IsTreeShaped());

  ConjunctiveQuery parallel =
      MustParse("Q(x) :- Child(x, y), Child+(x, y).");
  EXPECT_FALSE(parallel.IsTreeShaped());

  ConjunctiveQuery disconnected =
      MustParse("Q(x) :- Lab_a(x), Child(y, z).");
  EXPECT_FALSE(disconnected.IsConnected());
  EXPECT_FALSE(disconnected.IsTreeShaped());
}

TEST(CqAstTest, NormalizeInverseAxes) {
  ConjunctiveQuery q = MustParse("Q(x) :- parent(x, y), ancestor(x, z).");
  q.NormalizeInverseAxes();
  ASSERT_EQ(q.axis_atoms().size(), 2u);
  EXPECT_EQ(q.axis_atoms()[0].axis, Axis::kChild);
  EXPECT_EQ(q.axis_atoms()[0].var0, 1);  // swapped
  EXPECT_EQ(q.axis_atoms()[1].axis, Axis::kDescendant);
}

TEST(CqAstTest, AxesUsedDeduplicates) {
  ConjunctiveQuery q = MustParse(
      "Q() :- Child(a, b), Child(b, c), Child+(a, c).");
  EXPECT_EQ(q.AxesUsed().size(), 2u);
}

TEST(NaiveCqTest, UnaryQueryOnChain) {
  Document doc(Chain(4, "a", "b"));  // a b a b
  ConjunctiveQuery q = MustParse("Q(x) :- Child(x, y), Lab_b(y).");
  Result<TupleSet> r = NaiveEvaluateCq(q, doc);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (TupleSet{{0}, {2}}));
}

TEST(NaiveCqTest, BooleanSemantics) {
  Document doc(Chain(3));
  ConjunctiveQuery sat = MustParse("Q() :- Child(x, y), Child(y, z).");
  ConjunctiveQuery unsat =
      MustParse("Q() :- Child(x, y), NextSibling(x, y).");
  EXPECT_TRUE(NaiveSatisfiableCq(sat, doc).value());
  EXPECT_FALSE(NaiveSatisfiableCq(unsat, doc).value());
  EXPECT_EQ(NaiveEvaluateCq(sat, doc).value(), (TupleSet{{}}));
  EXPECT_TRUE(NaiveEvaluateCq(unsat, doc).value().empty());
}

TEST(NaiveCqTest, BinaryProjection) {
  Document doc(Star(4));
  ConjunctiveQuery q = MustParse("Q(x, y) :- NextSibling(x, y).");
  Result<TupleSet> r = NaiveEvaluateCq(q, doc);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (TupleSet{{1, 2}, {2, 3}}));
}

TEST(NaiveCqTest, BudgetAborts) {
  Document doc(Chain(50));
  ConjunctiveQuery q = MustParse(
      "Q() :- Child+(a, b), Child+(b, c), Child+(c, d), Child+(d, e).");
  const ExecContext budget = ExecContext::WithVisitBudget(10);
  Result<TupleSet> r = NaiveEvaluateCq(q, doc, /*stats=*/nullptr, budget);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(NaiveCqTest, SatisfiableStopsEarly) {
  Document doc(Chain(60));
  ConjunctiveQuery q = MustParse("Q() :- Child+(x, y).");
  NaiveCqStats stats;
  ASSERT_TRUE(NaiveSatisfiableCq(q, doc, &stats).value());
  // Finds (0, 1) nearly immediately rather than enumerating all pairs.
  EXPECT_LT(stats.assignments_tried, 20u);
}

}  // namespace
}  // namespace cq
}  // namespace treeq
