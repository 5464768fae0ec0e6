// Seeded differential test of the streaming matcher. Random trees and
// random queries from the streamable fragment (self / child / descendant /
// descendant-or-self steps; label, and, or, not and path qualifiers;
// unions). For each pair:
//
//   - the tree stream's Boolean answer, and its selection when supported,
//     equal xpath.set_at_a_time's answer;
//   - the text stream (the tree serialized, then StreamXmlText feeding
//     OnEvent) gives the same answers;
//   - a full run charges exactly 2n visits (one per start or end event);
//   - a visit budget k < 2n trips ResourceExhausted on charge k + 1, with
//     k visits used, and a budget of 2n completes.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "stream/sax.h"
#include "stream/stream_eval.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "tree/xml.h"
#include "util/random.h"
#include "xpath/ast.h"
#include "xpath/evaluator.h"

namespace treeq {
namespace stream {
namespace {

using xpath::PathExpr;
using xpath::Qualifier;

/// Query labels: "z" never occurs in the trees, so its test must never
/// match.
const char* const kQueryLabels[] = {"a", "b", "c", "z"};

/// A budget no run reaches: the context counts visits without tripping.
constexpr uint64_t kCounting = uint64_t{1} << 40;

class QueryGen {
 public:
  explicit QueryGen(Rng* rng) : rng_(rng) {}

  /// A main path; when `selectable`, non-final steps carry label tests
  /// only, so the query supports node selection.
  std::unique_ptr<PathExpr> Path(int depth, bool selectable) {
    const int steps = static_cast<int>(rng_->Uniform(1, 3));
    std::unique_ptr<PathExpr> out;
    for (int i = 0; i < steps; ++i) {
      const bool last = i + 1 == steps;
      auto step = Step(depth, selectable && !last);
      out = out == nullptr ? std::move(step)
                           : PathExpr::MakeSeq(std::move(out), std::move(step));
    }
    if (depth > 0 && rng_->Bernoulli(0.2)) {
      return PathExpr::MakeUnion(std::move(out), Path(depth - 1, selectable));
    }
    return out;
  }

 private:
  std::unique_ptr<PathExpr> Step(int depth, bool labels_only) {
    static const Axis kAxes[] = {Axis::kSelf, Axis::kChild,
                                 Axis::kDescendant, Axis::kDescendantOrSelf};
    auto step = PathExpr::MakeStep(kAxes[rng_->Uniform(0, 3)]);
    if (rng_->Bernoulli(0.7)) {
      step->qualifiers.push_back(labels_only ? LabelQual(1) : Qual(depth));
    }
    return step;
  }

  std::unique_ptr<Qualifier> Label() {
    return Qualifier::MakeLabel(kQueryLabels[rng_->Uniform(0, 3)]);
  }

  std::unique_ptr<Qualifier> LabelQual(int depth) {
    if (depth > 0 && rng_->Bernoulli(0.3)) {
      return Qualifier::MakeAnd(LabelQual(depth - 1), LabelQual(depth - 1));
    }
    return Label();
  }

  std::unique_ptr<Qualifier> Qual(int depth) {
    switch (depth <= 0 ? 0 : rng_->Uniform(0, 5)) {
      case 0:
      case 1:
        return Label();
      case 2:
        return Qualifier::MakePath(Path(depth - 1, /*selectable=*/false));
      case 3:
        return Qualifier::MakeAnd(Qual(depth - 1), Qual(depth - 1));
      case 4:
        return Qualifier::MakeOr(Qual(depth - 1), Qual(depth - 1));
      default:
        return Qualifier::MakeNot(Qual(depth - 1));
    }
  }

  Rng* rng_;
};

class StreamDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamDifferentialTest, TreeAndTextStreamsMatchSetAtATime) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7727u + 1);
  RandomTreeOptions opts;
  opts.num_nodes = static_cast<int>(rng.Uniform(1, 40));
  opts.attach_window = static_cast<int>(rng.Uniform(1, 8));
  opts.alphabet = {"a", "b", "c"};
  Document doc(RandomTree(&rng, opts));
  const Tree& tree = doc.tree();
  const int n = tree.num_nodes();
  const uint64_t events = 2 * static_cast<uint64_t>(n);

  // StreamXmlText numbers elements in document order, as node ids are:
  // text node k is tree node k.
  const std::string xml = WriteXml(tree);

  QueryGen gen(&rng);
  int selections = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const std::unique_ptr<PathExpr> query =
        gen.Path(/*depth=*/2, /*selectable=*/trial % 2 == 0);
    const std::string text = xpath::ToString(*query);
    SCOPED_TRACE(text);
    Result<StreamProgram> program = StreamProgram::Compile(*query);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    const NodeSet expected = xpath::EvalQueryFromRoot(doc, *query).value();

    // Tree stream, Boolean: a full run charges one visit per event.
    ExecContext full = ExecContext::WithVisitBudget(kCounting);
    StreamStats stats;
    Result<bool> matched =
        StreamMatcher::MatchTree(program.value(), tree, &stats, full);
    ASSERT_TRUE(matched.ok()) << matched.status().ToString();
    EXPECT_EQ(matched.value(), !expected.empty());
    EXPECT_EQ(full.visits_used(), events);
    EXPECT_EQ(stats.events, events);
    EXPECT_EQ(stats.peak_frames, static_cast<size_t>(tree.Depth() + 1));
    EXPECT_EQ(stats.frame_bytes, program.value().frame_bytes());

    // Text stream through the SaxEvent adapter.
    StreamMatcher text_matcher(program.value(), n);
    ASSERT_TRUE(StreamXmlText(xml, [&](const SaxEvent& e) {
                  text_matcher.OnEvent(e);
                }).ok());
    EXPECT_EQ(text_matcher.Matches(), !expected.empty());
    EXPECT_EQ(text_matcher.stats().events, events);

    if (program.value().selection_supported()) {
      ++selections;
      ExecContext select_full = ExecContext::WithVisitBudget(kCounting);
      Result<NodeSet> selected = StreamMatcher::SelectFromTree(
          program.value(), tree, nullptr, select_full);
      ASSERT_TRUE(selected.ok()) << selected.status().ToString();
      EXPECT_EQ(selected.value(), expected);
      EXPECT_EQ(select_full.visits_used(), events);

      EXPECT_EQ(text_matcher.selected(), expected);
    } else {
      EXPECT_EQ(StreamMatcher::SelectFromTree(program.value(), tree)
                    .status()
                    .code(),
                StatusCode::kUnsupported);
    }

    // Budgets below 2n trip on charge k + 1; 2n completes.
    for (uint64_t k : {uint64_t{0}, uint64_t{1}, events / 2, events - 1,
                       events}) {
      ExecContext bounded = ExecContext::WithVisitBudget(k);
      Result<bool> run =
          StreamMatcher::MatchTree(program.value(), tree, nullptr, bounded);
      if (k < events) {
        EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
            << "budget " << k;
      } else {
        EXPECT_TRUE(run.ok()) << "budget " << k;
      }
      EXPECT_EQ(bounded.visits_used(), std::min(k, events)) << "budget " << k;
    }
  }
  EXPECT_GT(selections, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamDifferentialTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace stream
}  // namespace treeq
