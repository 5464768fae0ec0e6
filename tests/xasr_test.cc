#include "storage/xasr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "tree/axes.h"
#include "tree/generator.h"
#include "util/random.h"

namespace treeq {
namespace {

// The tree of Figure 2(a).
Tree Figure2Tree() {
  TreeBuilder b;
  b.BeginNode("a");
  b.BeginNode("b");
  b.BeginNode("a");
  b.EndNode();
  b.BeginNode("c");
  b.EndNode();
  b.EndNode();
  b.BeginNode("a");
  b.BeginNode("b");
  b.EndNode();
  b.BeginNode("d");
  b.EndNode();
  b.EndNode();
  b.EndNode();
  Result<Tree> t = b.Finish();
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(XasrTest, Figure2TableMatchesPaper) {
  Tree t = Figure2Tree();
  TreeOrders o = ComputeOrders(t);
  Xasr x = Xasr::Build(t, o);
  ASSERT_EQ(x.num_rows(), 7);
  // Paper's table (1-based): rows (pre, post, parent_pre, label):
  // (1,7,NULL,a) (2,3,1,b) (3,1,2,a) (4,2,2,c) (5,6,1,a) (6,4,5,b) (7,5,5,d)
  struct Expect {
    int post;
    int parent_pre;
    const char* label;
  };
  const Expect kExpected[] = {{6, XasrRow::kNoParent, "a"},
                              {2, 0, "b"},
                              {0, 1, "a"},
                              {1, 1, "c"},
                              {5, 0, "a"},
                              {3, 4, "b"},
                              {4, 4, "d"}};
  for (int pre = 0; pre < 7; ++pre) {
    const XasrRow& row = x.row(pre);
    EXPECT_EQ(row.pre, pre);
    EXPECT_EQ(row.post, kExpected[pre].post) << "pre=" << pre;
    EXPECT_EQ(row.parent_pre, kExpected[pre].parent_pre) << "pre=" << pre;
    EXPECT_EQ(t.label_table().Name(row.label), kExpected[pre].label);
  }
}

TEST(XasrTest, ChildViewMatchesChildAxis) {
  Rng rng(3);
  RandomTreeOptions opts;
  opts.num_nodes = 80;
  Tree t = RandomTree(&rng, opts);
  TreeOrders o = ComputeOrders(t);
  Xasr x = Xasr::Build(t, o);
  std::set<std::pair<int, int>> got;
  for (const auto& p : x.ChildView()) got.insert(p);
  std::set<std::pair<int, int>> want;
  for (const auto& [u, v] : MaterializeAxis(t, o, Axis::kChild)) {
    want.insert({u, v});
  }
  EXPECT_EQ(got, want);
}

TEST(XasrTest, DescendantViewMatchesDescendantAxis) {
  Rng rng(5);
  RandomTreeOptions opts;
  opts.num_nodes = 60;
  Tree t = RandomTree(&rng, opts);
  TreeOrders o = ComputeOrders(t);
  Xasr x = Xasr::Build(t, o);
  std::set<std::pair<int, int>> got;
  for (const auto& p : x.DescendantView()) got.insert(p);
  std::set<std::pair<int, int>> want;
  for (const auto& [u, v] : MaterializeAxis(t, o, Axis::kDescendant)) {
    want.insert({u, v});
  }
  EXPECT_EQ(got, want);
}

TEST(XasrTest, IteratedJoinsEqualThetaJoin) {
  Rng rng(7);
  RandomTreeOptions opts;
  opts.num_nodes = 40;
  Tree t = RandomTree(&rng, opts);
  TreeOrders o = ComputeOrders(t);
  Xasr x = Xasr::Build(t, o);
  std::set<std::pair<int, int>> a;
  for (const auto& p : x.DescendantView()) a.insert(p);
  std::set<std::pair<int, int>> b;
  for (const auto& p : DescendantByIteratedJoins(x)) b.insert(p);
  EXPECT_EQ(a, b);
}

TEST(XasrTest, PresWithLabel) {
  Tree t = Figure2Tree();
  TreeOrders o = ComputeOrders(t);
  Xasr x = Xasr::Build(t, o);
  LabelId a = t.label_table().Lookup("a");
  EXPECT_EQ(x.PresWithLabel(a), (std::vector<int>{0, 2, 4}));
  LabelId d = t.label_table().Lookup("d");
  EXPECT_EQ(x.PresWithLabel(d), std::vector<int>{6});
}

TEST(XasrTest, SizeIsLinear) {
  Tree t = Figure2Tree();
  TreeOrders o = ComputeOrders(t);
  Xasr x = Xasr::Build(t, o);
  EXPECT_EQ(x.SizeInWords(), 7u * 4u);
}

TEST(XasrTest, PostRanksMatchAPostOrderWalk) {
  // A random tree is built out of document order; Finish renumbers it, and
  // the derived post ranks must still be those of a post-order walk.
  Rng rng(9);
  RandomTreeOptions opts;
  opts.num_nodes = 50;
  Tree t = RandomTree(&rng, opts);
  Xasr x = Xasr::Build(t, ComputeOrders(t));
  int next_post = 0;
  std::vector<int> post(static_cast<size_t>(t.num_nodes()), -1);
  auto walk = [&](auto&& self, NodeId v) -> void {
    for (NodeId c = t.first_child(v); c != kNullNode; c = t.next_sibling(c)) {
      self(self, c);
    }
    post[static_cast<size_t>(v)] = next_post++;
  };
  walk(walk, t.root());
  for (int pre = 0; pre < x.num_rows(); ++pre) {
    EXPECT_EQ(x.row(pre).post, post[static_cast<size_t>(pre)]) << pre;
  }
}

}  // namespace
}  // namespace treeq
