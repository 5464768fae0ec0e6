// LabelIndex (tree/label_index.h): the per-document inverted label index
// must agree with the arena-scanning paths it replaces, and the consumers
// routed through it (twig joins, xpath label filters) must agree with the
// naive oracles, which test labels on the tree directly.

#include <gtest/gtest.h>

#include <algorithm>

#include "cq/naive.h"
#include "cq/twig_join.h"
#include "storage/structural_join.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "tree/label_index.h"
#include "tree/orders.h"
#include "util/random.h"
#include "xpath/evaluator.h"
#include "xpath/naive_evaluator.h"
#include "xpath/parser.h"

namespace treeq {
namespace {

Tree MakeCatalog(int products) {
  Rng rng(11);
  CatalogOptions opts;
  opts.num_products = products;
  return CatalogDocument(&rng, opts);
}

TEST(LabelIndexTest, ItemsMatchScanAndSort) {
  Tree t = MakeCatalog(30);
  TreeOrders o = ComputeOrders(t);
  LabelIndex index(t, o);
  ASSERT_EQ(index.num_labels(), t.label_table().size());
  for (LabelId label = 0; label < t.label_table().size(); ++label) {
    const std::vector<JoinItem>& got = index.Items(label);
    const std::vector<JoinItem> want = MakeJoinItemsForLabel(t, o, label);
    ASSERT_EQ(got.size(), want.size()) << "label " << t.label_table().Name(label);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].node, want[i].node);
      EXPECT_EQ(got[i].pre, want[i].pre);
      EXPECT_EQ(got[i].end, want[i].end);
      EXPECT_EQ(got[i].depth, want[i].depth);
    }
    EXPECT_TRUE(std::is_sorted(
        got.begin(), got.end(),
        [](const JoinItem& a, const JoinItem& b) { return a.pre < b.pre; }));
  }
}

TEST(LabelIndexTest, SetsMatchHasLabel) {
  Tree t = MakeCatalog(20);
  TreeOrders o = ComputeOrders(t);
  LabelIndex index(t, o);
  for (LabelId label = 0; label < t.label_table().size(); ++label) {
    const NodeSet& set = index.Set(label);
    EXPECT_EQ(set.universe(), t.num_nodes());
    for (NodeId v = 0; v < t.num_nodes(); ++v) {
      EXPECT_EQ(set.Contains(v), t.HasLabel(v, label));
    }
  }
}

TEST(LabelIndexTest, UnknownLabelsAreEmpty) {
  Tree t = MakeCatalog(3);
  TreeOrders o = ComputeOrders(t);
  LabelIndex index(t, o);
  EXPECT_TRUE(index.Items(kNullLabel).empty());
  EXPECT_TRUE(index.Items(t.label_table().size() + 5).empty());
  EXPECT_TRUE(index.Set(kNullLabel).empty());
  EXPECT_EQ(index.Set(kNullLabel).universe(), t.num_nodes());
}

TEST(LabelIndexTest, MultiLabelNodesAppearInEveryStream) {
  Rng rng(3);
  RandomTreeOptions opts;
  opts.num_nodes = 80;
  opts.alphabet = {"a", "b", "c"};
  opts.second_label_prob = 0.5;
  Tree t = RandomTree(&rng, opts);
  TreeOrders o = ComputeOrders(t);
  LabelIndex index(t, o);
  int total = 0;
  for (LabelId label = 0; label < t.label_table().size(); ++label) {
    total += static_cast<int>(index.Items(label).size());
  }
  int want = 0;
  for (NodeId v = 0; v < t.num_nodes(); ++v) {
    want += static_cast<int>(t.labels(v).size());
  }
  EXPECT_EQ(total, want);
}

TEST(LabelIndexTest, DocumentCachesIndex) {
  DocumentPtr doc = MakeDocument(MakeCatalog(5));
  EXPECT_FALSE(doc->label_index_computed());
  const LabelIndex& first = doc->label_index();
  EXPECT_TRUE(doc->label_index_computed());
  EXPECT_EQ(&first, &doc->label_index());  // same instance, no rebuild
}

// The twig joins read the document's LabelIndex; the naive CQ oracle tests
// labels with Tree::HasLabel.
TEST(LabelIndexTest, TwigJoinsAgreeWithNaiveOracle) {
  Document doc(MakeCatalog(40));
  cq::TwigPattern p;
  p.nodes.push_back({"product", Axis::kDescendant, -1});
  p.nodes.push_back({"reviews", Axis::kChild, 0});
  p.nodes.push_back({"review", Axis::kChild, 1});
  p.nodes.push_back({"rating5", Axis::kChild, 2});

  Result<cq::TupleSet> oracle =
      cq::NaiveEvaluateCq(p.ToConjunctiveQuery(), doc);
  ASSERT_TRUE(oracle.ok());
  ASSERT_FALSE(oracle.value().empty());

  Result<cq::TupleSet> stack = cq::TwigStackJoin(p, doc);
  ASSERT_TRUE(stack.ok());
  EXPECT_EQ(stack.value(), oracle.value());

  Result<cq::TupleSet> binary = cq::TwigByStructuralJoins(p, doc);
  ASSERT_TRUE(binary.ok());
  EXPECT_EQ(binary.value(), oracle.value());
}

// The set-at-a-time label filter copies the LabelIndex bitmap; the naive
// XPath oracle tests labels with Tree::HasLabel.
TEST(LabelIndexTest, XPathLabelFilterAgreesWithNaiveOracle) {
  Document doc(MakeCatalog(25));
  auto q = xpath::ParseXPath(
               "descendant::*[lab() = \"product\" and "
               "descendant::*[lab() = \"rating5\"] and "
               "not(lab() = \"desc\")]")
               .value();
  Result<NodeSet> oracle = xpath::NaiveEvalPath(doc, *q, doc.tree().root());
  ASSERT_TRUE(oracle.ok());
  ASSERT_FALSE(oracle.value().empty());

  Result<NodeSet> via_index = xpath::EvalQueryFromRoot(doc, *q);
  ASSERT_TRUE(via_index.ok());
  EXPECT_TRUE(via_index.value() == oracle.value());
}

}  // namespace
}  // namespace treeq
