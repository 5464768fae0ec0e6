// Cross-engine integration tests: one realistic document, many queries,
// every applicable engine — they must all agree. This is the repo-level
// guarantee that the paper's translation arrows (Figure 7) commute in code.

#include <gtest/gtest.h>

#include <string>

#include "cq/dichotomy.h"
#include "cq/enumerate.h"
#include "cq/naive.h"
#include "cq/parser.h"
#include "cq/yannakakis.h"
#include "cq/treewidth_eval.h"
#include "cq/twig_join.h"
#include "datalog/evaluator.h"
#include "stream/stream_eval.h"
#include "tree/generator.h"
#include "tree/document.h"
#include "tree/xml.h"
#include "util/random.h"
#include "xpath/evaluator.h"
#include "xpath/naive_evaluator.h"
#include "xpath/parser.h"
#include "xpath/to_datalog.h"
#include "xpath/to_forward.h"

namespace treeq {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2006);
    CatalogOptions opts;
    opts.num_products = 40;
    Tree generated = CatalogDocument(&rng, opts);
    // Round-trip through XML text so the parser/serializer sit in the loop.
    std::string xml = WriteXml(generated);
    Result<Tree> reparsed = ParseXml(xml);
    ASSERT_TRUE(reparsed.ok());
    doc_ = std::make_unique<Document>(std::move(reparsed).value());
  }

  std::unique_ptr<Document> doc_;
};

TEST_F(IntegrationTest, AllEnginesAgreeOnConjunctiveQueries) {
  const char* kQueries[] = {
      "/catalog/product",
      "//review",
      "//product[reviews/review/comment]",
      "//product/desc/para[emph]",
      "//review[rating5]/comment",
      "//product[desc/para]//rating4",
  };
  for (const char* text : kQueries) {
    auto p = std::move(xpath::ParseXPath(text)).value();

    // Engine 1: linear set-at-a-time.
    NodeSet direct = xpath::EvalQueryFromRoot(*doc_, *p).value();
    // Engine 2: naive recursive semantics.
    Result<NodeSet> naive =
        xpath::NaiveEvalPath(*doc_, *p, doc_->tree().root());
    ASSERT_TRUE(naive.ok()) << text;
    EXPECT_EQ(direct.ToVector(), naive.value().ToVector()) << text;
    // Engine 3: datalog pipeline.
    auto program = std::move(xpath::XPathToDatalog(*p)).value();
    auto via_datalog =
        std::move(datalog::EvaluateDatalog(program, *doc_)).value();
    EXPECT_EQ(direct.ToVector(), via_datalog.ToVector()) << text;
    // Engine 4: forward rewrite + linear evaluation.
    auto fwd = std::move(xpath::ToForwardXPath(*p)).value();
    NodeSet via_forward = xpath::EvalQueryFromRoot(*doc_, *fwd).value();
    EXPECT_EQ(direct.ToVector(), via_forward.ToVector()) << text;
    // Engine 5: streaming over SAX events (selection mode if supported,
    // Boolean otherwise).
    auto stream_program =
        std::move(stream::StreamProgram::Compile(*fwd)).value();
    stream::StreamMatcher matcher(stream_program, doc_->num_nodes());
    stream::StreamTree(doc_->tree(), [&matcher](const stream::SaxEvent& e) {
      matcher.OnEvent(e);
    });
    EXPECT_EQ(matcher.Matches(), !direct.empty()) << text;
    if (stream_program.selection_supported()) {
      EXPECT_EQ(matcher.selected().ToVector(), direct.ToVector()) << text;
    }
  }
}

TEST_F(IntegrationTest, TwigAndXPathAgree) {
  // product[.//rating5][.//comment] as a twig and as XPath.
  cq::TwigPattern twig;
  twig.nodes.push_back({"product", Axis::kDescendant, -1});
  twig.nodes.push_back({"rating5", Axis::kDescendant, 0});
  twig.nodes.push_back({"comment", Axis::kDescendant, 0});
  auto matches = std::move(cq::TwigStackJoin(twig, *doc_)).value();
  NodeSet roots(doc_->num_nodes());
  for (const auto& m : matches) roots.Insert(m[0]);

  auto p = std::move(xpath::ParseXPath(
                         "//product[descendant::rating5][descendant::comment]"))
               .value();
  NodeSet via_xpath = xpath::EvalQueryFromRoot(*doc_, *p).value();
  EXPECT_EQ(roots.ToVector(), via_xpath.ToVector());
}

TEST_F(IntegrationTest, CqEnginesAgreeOnTreeAndCyclicQueries) {
  struct Case {
    const char* text;
    bool tree_shaped;
  };
  const Case kCases[] = {
      {"Q() :- Child+(x, y), Lab_product(x), Lab_rating5(y).", true},
      {"Q() :- Child(x, y), Child(x, z), NextSibling(y, z), Lab_review(x).",
       false},
      {"Q() :- Child+(x, y), Child+(y, z), Child+(x, z), Lab_product(x), "
       "Lab_review(y), Lab_rating3(z).",
       false},
  };
  for (const Case& c : kCases) {
    auto q = std::move(cq::ParseCq(c.text)).value();
    bool expected = std::move(cq::NaiveSatisfiableCq(q, *doc_)).value();
    EXPECT_EQ(std::move(cq::EvaluateBooleanTreewidth(q, *doc_)).value(),
              expected)
        << c.text;
    EXPECT_EQ(std::move(cq::EvaluateBooleanDichotomy(q, *doc_)).value(),
              expected)
        << c.text;
    if (c.tree_shaped) {
      EXPECT_EQ(std::move(cq::EvaluateBooleanAcyclic(q, *doc_)).value(),
                expected)
          << c.text;
    }
  }
}

TEST(DeepTreeTest, EnginesSurviveDeepDocuments) {
  const int kDepth = 4000;
  Document doc(Chain(kDepth, "a", "b"));
  const Tree& deep = doc.tree();

  auto p = std::move(xpath::ParseXPath("//b[not(a)]")).value();
  NodeSet direct = xpath::EvalQueryFromRoot(doc, *p).value();
  EXPECT_EQ(direct.size(), 1);  // only the deepest b has no a below

  auto fwd_ok = stream::StreamMatcher::MatchTree(
      std::move(stream::StreamProgram::Compile(*p)).value(), deep);
  ASSERT_TRUE(fwd_ok.ok());
  EXPECT_TRUE(fwd_ok.value());

  auto program = std::move(xpath::XPathToDatalog(
                               *std::move(xpath::ParseXPath("//b[a]")).value()))
                     .value();
  auto via_datalog = datalog::EvaluateDatalog(program, doc);
  ASSERT_TRUE(via_datalog.ok());
  EXPECT_EQ(via_datalog.value().size(), kDepth / 2 - 1);

  // XML serialization round trip at depth.
  std::string xml = WriteXml(deep);
  Result<Tree> reparsed = ParseXml(xml);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().num_nodes(), kDepth);
}

TEST(SingleNodeTest, AllEnginesHandleTheSmallestTree) {
  Document doc(Chain(1, "only"));
  const Tree& t = doc.tree();

  auto p = std::move(xpath::ParseXPath("/only")).value();
  EXPECT_EQ(xpath::EvalQueryFromRoot(doc, *p).value().size(), 1);
  // "//x" abbreviates descendant-or-self::*/child::x, so it cannot select
  // the context root itself; descendant-or-self::x can.
  auto dslash = std::move(xpath::ParseXPath("//only")).value();
  EXPECT_EQ(xpath::EvalQueryFromRoot(doc, *dslash).value().size(), 0);
  auto any = std::move(xpath::ParseXPath("descendant-or-self::only")).value();
  EXPECT_EQ(xpath::EvalQueryFromRoot(doc, *any).value().size(), 1);
  auto child = std::move(xpath::ParseXPath("only")).value();
  EXPECT_EQ(xpath::EvalQueryFromRoot(doc, *child).value().size(), 0);

  auto q = std::move(cq::ParseCq("Q(x) :- Lab_only(x).")).value();
  EXPECT_EQ(std::move(cq::EvaluateAcyclic(q, doc)).value(),
            (cq::TupleSet{{0}}));

  auto unsat = std::move(cq::ParseCq("Q() :- Child(x, y).")).value();
  EXPECT_FALSE(std::move(cq::EvaluateBooleanTreewidth(unsat, doc)).value());

  stream::StreamStats stats;
  auto matched = stream::StreamMatcher::MatchTree(
      std::move(stream::StreamProgram::Compile(*any)).value(), t, &stats);
  ASSERT_TRUE(matched.ok());
  EXPECT_TRUE(matched.value());
  EXPECT_EQ(stats.peak_frames, 1u);
}

}  // namespace
}  // namespace treeq
