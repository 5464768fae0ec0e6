#include "storage/structural_join.h"

#include <gtest/gtest.h>

#include <set>

#include "tree/axes.h"
#include "tree/generator.h"
#include "util/random.h"

namespace treeq {
namespace {

using PairSet = std::set<std::pair<NodeId, NodeId>>;

PairSet ToSet(const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  return PairSet(pairs.begin(), pairs.end());
}

// Reference result computed from axis semantics.
PairSet RefJoin(const Tree& t, const TreeOrders& o,
                const std::vector<NodeId>& anc, const std::vector<NodeId>& desc,
                bool parent_child) {
  PairSet out;
  Axis axis = parent_child ? Axis::kChild : Axis::kDescendant;
  for (NodeId a : anc) {
    for (NodeId d : desc) {
      if (AxisHolds(t, o, axis, a, d)) out.insert({a, d});
    }
  }
  return out;
}

class StructuralJoinPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(StructuralJoinPropertyTest, MatchesAxisSemanticsOnRandomLists) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 70;
  opts.attach_window = 1 + GetParam() % 10;
  Tree t = RandomTree(&rng, opts);
  TreeOrders o = ComputeOrders(t);

  for (int trial = 0; trial < 5; ++trial) {
    std::vector<NodeId> anc, desc;
    for (NodeId n = 0; n < t.num_nodes(); ++n) {
      if (rng.Bernoulli(0.4)) anc.push_back(n);
      if (rng.Bernoulli(0.4)) desc.push_back(n);
    }
    std::vector<JoinItem> a = MakeJoinItems(o, anc);
    std::vector<JoinItem> d = MakeJoinItems(o, desc);
    for (bool parent_child : {false, true}) {
      PairSet want = RefJoin(t, o, anc, desc, parent_child);
      EXPECT_EQ(ToSet(StackTreeJoin(a, d, parent_child)), want)
          << "stack-tree pc=" << parent_child;
      EXPECT_EQ(ToSet(NestedLoopJoin(a, d, parent_child)), want)
          << "nested-loop pc=" << parent_child;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructuralJoinPropertyTest,
                         ::testing::Range(0, 8));

TEST(StructuralJoinTest, LabelDrivenJoin) {
  // catalog document: every "rating*" node descends from some "review".
  Rng rng(99);
  CatalogOptions copts;
  copts.num_products = 30;
  Tree t = CatalogDocument(&rng, copts);
  TreeOrders o = ComputeOrders(t);
  LabelId review = t.label_table().Lookup("review");
  ASSERT_NE(review, kNullLabel);
  std::vector<JoinItem> reviews = MakeJoinItemsForLabel(t, o, review);
  LabelId product = t.label_table().Lookup("product");
  std::vector<JoinItem> products = MakeJoinItemsForLabel(t, o, product);

  auto pairs = StackTreeJoin(products, reviews, /*parent_child=*/false);
  // Every review matches exactly one product ancestor.
  EXPECT_EQ(pairs.size(), reviews.size());
  // Parent-child join of product->review is empty (reviews sit under a
  // "reviews" wrapper).
  EXPECT_TRUE(StackTreeJoin(products, reviews, /*parent_child=*/true).empty());
}

TEST(StructuralJoinTest, SelfPairsExcluded) {
  Tree t = Chain(5);
  TreeOrders o = ComputeOrders(t);
  std::vector<NodeId> all = {0, 1, 2, 3, 4};
  std::vector<JoinItem> items = MakeJoinItems(o, all);
  auto pairs = StackTreeJoin(items, items, /*parent_child=*/false);
  EXPECT_EQ(pairs.size(), 10u);  // C(5,2) proper ancestor pairs on a chain
  for (const auto& [a, d] : pairs) EXPECT_NE(a, d);
}

TEST(StructuralJoinTest, EmptyInputs) {
  Tree t = Chain(3);
  TreeOrders o = ComputeOrders(t);
  std::vector<JoinItem> empty;
  std::vector<JoinItem> all = MakeJoinItems(o, {0, 1, 2});
  EXPECT_TRUE(StackTreeJoin(empty, all, false).empty());
  EXPECT_TRUE(StackTreeJoin(all, empty, false).empty());
  EXPECT_TRUE(StackTreeJoin(empty, empty, true).empty());
}

TEST(StructuralJoinTest, OutputGroupedByDescendantInDocumentOrder) {
  Rng rng(123);
  RandomTreeOptions opts;
  opts.num_nodes = 50;
  Tree t = RandomTree(&rng, opts);
  TreeOrders o = ComputeOrders(t);
  std::vector<NodeId> all;
  for (NodeId n = 0; n < t.num_nodes(); ++n) all.push_back(n);
  std::vector<JoinItem> items = MakeJoinItems(o, all);
  auto pairs = StackTreeJoin(items, items, false);
  for (size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_LE(pairs[i - 1].second, pairs[i].second);
  }
}

}  // namespace
}  // namespace treeq
