#include "storage/dewey.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tree/axes.h"
#include "tree/generator.h"
#include "tree/orders.h"
#include "util/random.h"

namespace treeq {
namespace {

TEST(OrdpathTest, CompareIsLexicographic) {
  EXPECT_EQ(OrdpathCompare({1}, {1}), 0);
  EXPECT_LT(OrdpathCompare({1}, {3}), 0);
  EXPECT_LT(OrdpathCompare({1}, {1, 1}), 0);  // ancestor before descendant
  EXPECT_GT(OrdpathCompare({3, 1}, {1, 5}), 0);
  EXPECT_LT(OrdpathCompare({}, {1}), 0);  // root first
}

TEST(OrdpathTest, DepthCountsOddComponents) {
  EXPECT_EQ(OrdpathDepth({}), 0);
  EXPECT_EQ(OrdpathDepth({1}), 1);
  EXPECT_EQ(OrdpathDepth({4, 1}), 1);  // caret does not add depth
  EXPECT_EQ(OrdpathDepth({1, 3, 5}), 3);
  EXPECT_EQ(OrdpathDepth({2, 2, 1, 3}), 2);
}

TEST(OrdpathTest, AncestorIsChunkPrefix) {
  EXPECT_TRUE(OrdpathIsAncestor({}, {1}));
  EXPECT_TRUE(OrdpathIsAncestor({1}, {1, 3}));
  EXPECT_TRUE(OrdpathIsAncestor({1}, {1, 4, 1}));
  EXPECT_FALSE(OrdpathIsAncestor({1}, {1}));
  EXPECT_FALSE(OrdpathIsAncestor({1, 3}, {1}));
  EXPECT_FALSE(OrdpathIsAncestor({3}, {1, 3}));
}

TEST(OrdpathTest, ChildAddsOneChunk) {
  EXPECT_TRUE(OrdpathIsChild({1}, {1, 3}));
  EXPECT_TRUE(OrdpathIsChild({1}, {1, 4, 1}));  // careted child
  EXPECT_FALSE(OrdpathIsChild({1}, {1, 3, 5}));
}

TEST(OrdpathTest, FollowingSibling) {
  EXPECT_TRUE(OrdpathIsFollowingSibling({1, 1}, {1, 3}));
  EXPECT_TRUE(OrdpathIsFollowingSibling({1, 1}, {1, 4, 1}));
  EXPECT_FALSE(OrdpathIsFollowingSibling({1, 3}, {1, 1}));
  EXPECT_FALSE(OrdpathIsFollowingSibling({1, 1}, {3, 3}));  // different parent
  EXPECT_FALSE(OrdpathIsFollowingSibling({}, {1}));
}

TEST(OrdpathTest, ValidChunk) {
  EXPECT_TRUE(OrdpathIsValidChunk({1}));
  EXPECT_TRUE(OrdpathIsValidChunk({-3}));
  EXPECT_TRUE(OrdpathIsValidChunk({4, 1}));
  EXPECT_TRUE(OrdpathIsValidChunk({2, 0, 7}));
  EXPECT_FALSE(OrdpathIsValidChunk({}));
  EXPECT_FALSE(OrdpathIsValidChunk({2}));      // must end odd
  EXPECT_FALSE(OrdpathIsValidChunk({1, 3}));   // odd in the middle
}

TEST(OrdpathTest, BeforeAfterProduceValidOrderedChunks) {
  std::vector<int64_t> c = {5};
  auto before = OrdpathBefore(c);
  auto after = OrdpathAfter(c);
  EXPECT_TRUE(OrdpathIsValidChunk(before));
  EXPECT_TRUE(OrdpathIsValidChunk(after));
  EXPECT_LT(OrdpathCompare(before, c), 0);
  EXPECT_GT(OrdpathCompare(after, c), 0);
  // Works on careted chunks too.
  std::vector<int64_t> careted = {4, 1};
  EXPECT_LT(OrdpathCompare(OrdpathBefore(careted), careted), 0);
  EXPECT_GT(OrdpathCompare(OrdpathAfter(careted), careted), 0);
}

TEST(OrdpathTest, BetweenSimpleGap) {
  auto mid = OrdpathBetween({1}, {5});
  EXPECT_TRUE(OrdpathIsValidChunk(mid));
  EXPECT_LT(OrdpathCompare({1}, mid), 0);
  EXPECT_LT(OrdpathCompare(mid, {5}), 0);
  EXPECT_EQ(mid, (std::vector<int64_t>{3}));
}

TEST(OrdpathTest, BetweenAdjacentOddsUsesCaret) {
  auto mid = OrdpathBetween({3}, {5});
  EXPECT_TRUE(OrdpathIsValidChunk(mid));
  EXPECT_LT(OrdpathCompare({3}, mid), 0);
  EXPECT_LT(OrdpathCompare(mid, {5}), 0);
  EXPECT_EQ(mid, (std::vector<int64_t>{4, 1}));
}

// Property: repeated insertion between random adjacent siblings always
// yields valid, strictly ordered, depth-preserving chunks — the
// insert-friendliness ORDPATH exists for.
class OrdpathInsertTortureTest : public ::testing::TestWithParam<int> {};

TEST_P(OrdpathInsertTortureTest, HundredInsertsStayConsistent) {
  Rng rng(GetParam());
  std::vector<std::vector<int64_t>> siblings = {{1}};
  for (int step = 0; step < 100; ++step) {
    int pos = static_cast<int>(
        rng.Uniform(0, static_cast<int64_t>(siblings.size())));
    std::vector<int64_t> fresh;
    if (pos == 0) {
      fresh = OrdpathBefore(siblings.front());
    } else if (pos == static_cast<int>(siblings.size())) {
      fresh = OrdpathAfter(siblings.back());
    } else {
      fresh = OrdpathBetween(siblings[pos - 1], siblings[pos]);
    }
    ASSERT_TRUE(OrdpathIsValidChunk(fresh)) << "step " << step;
    siblings.insert(siblings.begin() + pos, fresh);
    for (size_t i = 1; i < siblings.size(); ++i) {
      ASSERT_LT(OrdpathCompare(siblings[i - 1], siblings[i]), 0)
          << "step " << step << " i " << i;
    }
  }
  // All inserted labels are chunks: depth contribution exactly 1 each.
  for (const auto& s : siblings) {
    int odd = 0;
    for (int64_t c : s) {
      if (((c % 2) + 2) % 2 == 1) ++odd;
    }
    EXPECT_EQ(odd, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrdpathInsertTortureTest,
                         ::testing::Range(0, 10));

TEST(DeweyLabelingTest, BuildUsesOddOrdinals) {
  Tree t = Star(4);
  DeweyLabeling d = DeweyLabeling::Build(t);
  EXPECT_TRUE(d.label(0).empty());
  EXPECT_EQ(d.label(1), (OrdpathLabel{1}));
  EXPECT_EQ(d.label(2), (OrdpathLabel{3}));
  EXPECT_EQ(d.label(3), (OrdpathLabel{5}));
}

class DeweyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DeweyPropertyTest, LabelsDecideAxesLikeOrders) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 50;
  opts.attach_window = 1 + GetParam() % 8;
  Tree t = RandomTree(&rng, opts);
  TreeOrders o = ComputeOrders(t);
  DeweyLabeling d = DeweyLabeling::Build(t);
  for (NodeId u = 0; u < t.num_nodes(); ++u) {
    for (NodeId v = 0; v < t.num_nodes(); ++v) {
      EXPECT_EQ(OrdpathCompare(d.label(u), d.label(v)) < 0,
                u < v)
          << u << " " << v;
      EXPECT_EQ(OrdpathIsAncestor(d.label(u), d.label(v)),
                AxisHolds(t, o, Axis::kDescendant, u, v));
      EXPECT_EQ(OrdpathIsChild(d.label(u), d.label(v)),
                AxisHolds(t, o, Axis::kChild, u, v));
      EXPECT_EQ(OrdpathIsFollowingSibling(d.label(u), d.label(v)),
                AxisHolds(t, o, Axis::kFollowingSibling, u, v));
      EXPECT_EQ(OrdpathIsFollowing(d.label(u), d.label(v)),
                AxisHolds(t, o, Axis::kFollowing, u, v));
    }
    EXPECT_EQ(OrdpathDepth(d.label(u)), o.depth[u]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeweyPropertyTest, ::testing::Range(0, 6));

TEST(DeweyLabelingTest, InsertChildBetweenExistingChildren) {
  Tree t = Star(3);  // root with children 1, 2
  DeweyLabeling d = DeweyLabeling::Build(t);
  Result<int> mid = d.InsertChild(0, 1, 2);
  ASSERT_TRUE(mid.ok());
  const OrdpathLabel& l = d.label(mid.value());
  EXPECT_LT(OrdpathCompare(d.label(1), l), 0);
  EXPECT_LT(OrdpathCompare(l, d.label(2)), 0);
  EXPECT_TRUE(OrdpathIsChild(d.label(0), l));
}

TEST(DeweyLabelingTest, InsertChildAtEdgesAndUnderLeaf) {
  Tree t = Star(3);
  DeweyLabeling d = DeweyLabeling::Build(t);
  Result<int> first = d.InsertChild(0, kNullNode, 1);
  ASSERT_TRUE(first.ok());
  EXPECT_LT(OrdpathCompare(d.label(first.value()), d.label(1)), 0);
  Result<int> last = d.InsertChild(0, 2, kNullNode);
  ASSERT_TRUE(last.ok());
  EXPECT_GT(OrdpathCompare(d.label(last.value()), d.label(2)), 0);
  Result<int> leaf_child = d.InsertChild(1, kNullNode, kNullNode);
  ASSERT_TRUE(leaf_child.ok());
  EXPECT_TRUE(OrdpathIsChild(d.label(1), d.label(leaf_child.value())));
}

TEST(DeweyLabelingTest, InsertChildRejectsBadArguments) {
  Tree t = Star(3);
  DeweyLabeling d = DeweyLabeling::Build(t);
  EXPECT_FALSE(d.InsertChild(99, kNullNode, kNullNode).ok());
  // Sibling that is not a child of the given parent.
  EXPECT_FALSE(d.InsertChild(1, 2, kNullNode).ok());
  // Left not before right.
  EXPECT_FALSE(d.InsertChild(0, 2, 1).ok());
}

TEST(OrdpathTest, ToStringRendering) {
  EXPECT_EQ(OrdpathToString({}), "<root>");
  EXPECT_EQ(OrdpathToString({1, 4, 1}), "1.4.1");
}

}  // namespace
}  // namespace treeq
