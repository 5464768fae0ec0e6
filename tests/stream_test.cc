#include <gtest/gtest.h>

#include <functional>

#include "stream/sax.h"
#include "stream/stream_eval.h"
#include "tree/generator.h"
#include "tree/orders.h"
#include "tree/xml.h"
#include "util/random.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/to_forward.h"

namespace treeq {
namespace stream {
namespace {

std::unique_ptr<xpath::PathExpr> MustParse(const std::string& text) {
  Result<std::unique_ptr<xpath::PathExpr>> p = xpath::ParseXPath(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.status().ToString();
  return std::move(p).value();
}

StreamProgram MustCompile(const xpath::PathExpr& query) {
  Result<StreamProgram> program = StreamProgram::Compile(query);
  EXPECT_TRUE(program.ok()) << xpath::ToString(query) << ": "
                            << program.status().ToString();
  return std::move(program).value();
}

TEST(SaxTest, EventsAreBalancedAndDocumentOrdered) {
  Rng rng(3);
  RandomTreeOptions opts;
  opts.num_nodes = 40;
  Tree t = RandomTree(&rng, opts);
  std::vector<SaxEvent> events = ToSaxEvents(t);
  ASSERT_EQ(events.size(), 2u * t.num_nodes());
  int depth = 0;
  int starts_seen = 0;
  for (const SaxEvent& e : events) {
    if (e.kind == SaxEvent::Kind::kStartElement) {
      // Start events come in pre-order, which is node-id order.
      EXPECT_EQ(e.node, starts_seen);
      ++starts_seen;
      ++depth;
      EXPECT_FALSE(e.labels.empty());
    } else {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST(SaxTest, XmlTextStreamMatchesTreeStream) {
  const char* kDoc =
      "<catalog><product id=\"1\"><name/>text<price/></product>"
      "<!-- c --><product/></catalog>";
  Result<Tree> tree = ParseXml(kDoc);
  ASSERT_TRUE(tree.ok());
  std::vector<SaxEvent> from_tree = ToSaxEvents(tree.value());
  std::vector<SaxEvent> from_text;
  ASSERT_TRUE(StreamXmlText(kDoc, [&from_text](const SaxEvent& e) {
                from_text.push_back(e);
              }).ok());
  ASSERT_EQ(from_tree.size(), from_text.size());
  for (size_t i = 0; i < from_tree.size(); ++i) {
    EXPECT_EQ(from_tree[i].kind, from_text[i].kind) << i;
    EXPECT_EQ(from_tree[i].labels, from_text[i].labels) << i;
  }
}

TEST(SaxTest, XmlTextStreamRejectsMalformed) {
  auto sink = [](const SaxEvent&) {};
  EXPECT_FALSE(StreamXmlText("<a><b></a></b>", sink).ok());
  EXPECT_FALSE(StreamXmlText("<a>", sink).ok());
  EXPECT_FALSE(StreamXmlText("<a/><b/>", sink).ok());
  EXPECT_TRUE(StreamXmlText("<?xml version=\"1.0\"?><a><b/></a>", sink).ok());
}

TEST(StreamMatcherTest, CompileRejectsBackwardAxes) {
  EXPECT_FALSE(StreamProgram::Compile(*MustParse("a/parent::b")).ok());
  EXPECT_FALSE(StreamProgram::Compile(*MustParse("ancestor::a")).ok());
  EXPECT_FALSE(
      StreamProgram::Compile(*MustParse("following-sibling::a")).ok());
}

TEST(StreamMatcherTest, SelectionSupportClassification) {
  auto simple = StreamProgram::Compile(*MustParse("//a/b[c]"));
  ASSERT_TRUE(simple.ok());
  EXPECT_TRUE(simple.value().selection_supported());
  auto hard = StreamProgram::Compile(*MustParse("//a[c]/b"));
  ASSERT_TRUE(hard.ok());
  EXPECT_FALSE(hard.value().selection_supported());
}

class StreamAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamAgreementTest, BooleanMatchesInMemoryEvaluator) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 30;
  opts.attach_window = 1 + GetParam() % 6;
  opts.alphabet = {"a", "b", "c"};
  Document doc(RandomTree(&rng, opts));
  const Tree& t = doc.tree();

  const char* kQueries[] = {
      "a",
      "//a",
      "//a/b",
      "//a//b[c]",
      "//a[b and c]",
      "//a[b or not(c)]",
      "a/b/c",
      "//b[not(descendant::a)]",
      "/a//c",
      ".[a]//b",
      "//a[.//b[c] and not(b/c)]",
      "(//a/b | //c)",
      "//a[descendant-or-self::c]",
  };
  for (const char* text : kQueries) {
    std::unique_ptr<xpath::PathExpr> p = MustParse(text);
    Result<bool> streamed = StreamMatcher::MatchTree(MustCompile(*p), t);
    ASSERT_TRUE(streamed.ok()) << text << ": "
                               << streamed.status().ToString();
    bool expected = !xpath::EvalQueryFromRoot(doc, *p).value().empty();
    EXPECT_EQ(streamed.value(), expected) << text;
  }
}

TEST_P(StreamAgreementTest, SelectionMatchesInMemoryEvaluator) {
  Rng rng(100 + GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 35;
  opts.alphabet = {"a", "b", "c"};
  Document doc(RandomTree(&rng, opts));
  const Tree& t = doc.tree();

  // Selection-supported queries: non-final steps carry label tests only.
  const char* kQueries[] = {
      "a",
      "//a",
      "//a/b",
      "a/b/c",
      "//a//b",
      "//a/b[c]",
      "//b[not(c) and descendant::a]",
      "(//a | //b/c)",
      "//c[.//a//b]",
  };
  for (const char* text : kQueries) {
    std::unique_ptr<xpath::PathExpr> p = MustParse(text);
    Result<NodeSet> streamed =
        StreamMatcher::SelectFromTree(MustCompile(*p), t);
    ASSERT_TRUE(streamed.ok()) << text << ": "
                               << streamed.status().ToString();
    NodeSet expected = xpath::EvalQueryFromRoot(doc, *p).value();
    EXPECT_EQ(streamed.value().ToVector(), expected.ToVector()) << text;
  }
}

// Random downward forward queries (with and/or/not in qualifiers): the
// streaming Boolean answer must match the in-memory evaluator.
TEST_P(StreamAgreementTest, RandomQueriesMatchInMemoryEvaluator) {
  Rng rng(200 + GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 28;
  opts.attach_window = 1 + GetParam() % 5;
  opts.alphabet = {"a", "b", "c"};
  Document doc(RandomTree(&rng, opts));
  const Tree& t = doc.tree();

  static const Axis kDownward[] = {Axis::kSelf, Axis::kChild,
                                   Axis::kDescendant,
                                   Axis::kDescendantOrSelf};
  std::function<std::unique_ptr<xpath::PathExpr>(int)> gen_path;
  std::function<std::unique_ptr<xpath::Qualifier>(int)> gen_qual =
      [&](int depth) -> std::unique_ptr<xpath::Qualifier> {
    int pick = static_cast<int>(rng.Uniform(0, depth <= 0 ? 1 : 5));
    switch (pick) {
      case 0:
      case 1:
        return xpath::Qualifier::MakeLabel(
            std::string(1, static_cast<char>('a' + rng.Uniform(0, 2))));
      case 2:
        return xpath::Qualifier::MakePath(gen_path(depth - 1));
      case 3:
        return xpath::Qualifier::MakeAnd(gen_qual(depth - 1),
                                         gen_qual(depth - 1));
      case 4:
        return xpath::Qualifier::MakeOr(gen_qual(depth - 1),
                                        gen_qual(depth - 1));
      default:
        return xpath::Qualifier::MakeNot(gen_qual(depth - 1));
    }
  };
  gen_path = [&](int depth) -> std::unique_ptr<xpath::PathExpr> {
    auto step = xpath::PathExpr::MakeStep(kDownward[rng.Uniform(0, 3)]);
    if (rng.Bernoulli(0.6)) {
      step->qualifiers.push_back(gen_qual(depth));
    }
    if (depth > 0 && rng.Bernoulli(0.4)) {
      return xpath::PathExpr::MakeSeq(std::move(step), gen_path(depth - 1));
    }
    if (depth > 0 && rng.Bernoulli(0.2)) {
      return xpath::PathExpr::MakeUnion(std::move(step), gen_path(depth - 1));
    }
    return step;
  };

  for (int trial = 0; trial < 25; ++trial) {
    std::unique_ptr<xpath::PathExpr> p = gen_path(3);
    Result<bool> streamed = StreamMatcher::MatchTree(MustCompile(*p), t);
    ASSERT_TRUE(streamed.ok()) << xpath::ToString(*p);
    bool expected = !xpath::EvalQueryFromRoot(doc, *p).value().empty();
    EXPECT_EQ(streamed.value(), expected) << xpath::ToString(*p);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamAgreementTest, ::testing::Range(0, 8));

TEST(StreamMatcherTest, MemoryScalesWithDepthNotSize) {
  std::unique_ptr<xpath::PathExpr> p = MustParse("//a[b]//c");
  // Wide flat document: many nodes, depth 2.
  Tree wide = Caterpillar(1, 5000, "s", "l");
  StreamStats wide_stats;
  ASSERT_TRUE(
      StreamMatcher::MatchTree(MustCompile(*p), wide, &wide_stats).ok());
  EXPECT_LE(wide_stats.peak_frames, 3u);
  // Deep chain: few nodes relative to the wide doc, depth 999.
  Tree deep = Chain(1000);
  StreamStats deep_stats;
  ASSERT_TRUE(
      StreamMatcher::MatchTree(MustCompile(*p), deep, &deep_stats).ok());
  EXPECT_EQ(deep_stats.peak_frames, 1000u);
  EXPECT_GT(deep_stats.frame_bytes, 0u);
}

TEST(StreamMatcherTest, PipelineWithForwardRewriting) {
  // A backward query run by the streaming matcher after ToForwardXPath.
  Rng rng(77);
  CatalogOptions copts;
  copts.num_products = 20;
  Document doc(CatalogDocument(&rng, copts));
  const Tree& t = doc.tree();
  std::unique_ptr<xpath::PathExpr> backward =
      MustParse("//rating5/ancestor::product");
  Result<std::unique_ptr<xpath::PathExpr>> forward =
      xpath::ToForwardXPath(*backward);
  ASSERT_TRUE(forward.ok()) << forward.status().ToString();
  Result<bool> streamed =
      StreamMatcher::MatchTree(MustCompile(*forward.value()), t);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed.value(),
            !xpath::EvalQueryFromRoot(doc, *backward).value().empty());
}

}  // namespace
}  // namespace stream
}  // namespace treeq
