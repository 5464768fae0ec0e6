#include "tree/orders.h"

#include <gtest/gtest.h>

#include <vector>

#include "cq/x_property.h"
#include "tree/generator.h"
#include "tree/tree.h"
#include "util/random.h"

namespace treeq {
namespace {

// The tree of Figure 2(a): labels encode the paper's "pre:post:label"
// annotations (1-based there, 0-based here).
Tree Figure2Tree() {
  TreeBuilder b;
  b.BeginNode("a");   // 1:7:a
  b.BeginNode("b");   // 2:3:b
  b.BeginNode("a");   // 3:1:a
  b.EndNode();
  b.BeginNode("c");   // 4:2:c
  b.EndNode();
  b.EndNode();
  b.BeginNode("a");   // 5:6:a
  b.BeginNode("b");   // 6:4:b
  b.EndNode();
  b.BeginNode("d");   // 7:5:d
  b.EndNode();
  b.EndNode();
  b.EndNode();
  Result<Tree> t = b.Finish();
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(OrdersTest, Figure2PrePostMatchesPaper) {
  Tree t = Figure2Tree();
  TreeOrders o = ComputeOrders(t);
  // Node ids are pre ranks. Paper's post values (1-based): 7 3 1 2 6 4 5
  // -> 0-based:
  std::vector<int> expected_post = {6, 2, 0, 1, 5, 3, 4};
  for (NodeId v = 0; v < t.num_nodes(); ++v) {
    EXPECT_EQ(o.Post(v), expected_post[static_cast<size_t>(v)]) << v;
  }
}

TEST(OrdersTest, Figure2SizesAndDepths) {
  Tree t = Figure2Tree();
  TreeOrders o = ComputeOrders(t);
  EXPECT_EQ(o.size, (std::vector<int>{7, 3, 1, 1, 3, 1, 1}));
  EXPECT_EQ(o.depth, (std::vector<int>{0, 1, 2, 2, 1, 2, 2}));
}

// Reference ancestor test by chasing parent pointers.
bool RefProperAncestor(const Tree& t, NodeId a, NodeId b) {
  for (NodeId p = t.parent(b); p != kNullNode; p = t.parent(p)) {
    if (p == a) return true;
  }
  return false;
}

// Section 2: Child+(x,y) iff x <pre y and y <post x.
TEST(OrdersTest, PrePostCharacterizeAncestry) {
  Rng rng(11);
  RandomTreeOptions opts;
  opts.num_nodes = 60;
  opts.attach_window = 4;
  Tree t = RandomTree(&rng, opts);
  TreeOrders o = ComputeOrders(t);
  for (NodeId x = 0; x < t.num_nodes(); ++x) {
    for (NodeId y = 0; y < t.num_nodes(); ++y) {
      bool by_orders = x < y && o.Post(y) < o.Post(x);
      EXPECT_EQ(by_orders, RefProperAncestor(t, x, y))
          << "x=" << x << " y=" << y;
      EXPECT_EQ(by_orders, o.IsProperAncestor(x, y));
    }
  }
}

// Section 2: Following(x,y) iff x <pre y and x <post y. Reference via the
// paper's own definition through NextSibling+ of ancestors.
bool RefFollowing(const Tree& t, NodeId x, NodeId y) {
  // Collect ancestors-or-self of both.
  auto chain = [&t](NodeId n) {
    std::vector<NodeId> c;
    for (NodeId p = n; p != kNullNode; p = t.parent(p)) c.push_back(p);
    return c;
  };
  for (NodeId x0 : chain(x)) {
    for (NodeId y0 : chain(y)) {
      // NextSibling+(x0, y0)?
      for (NodeId s = t.next_sibling(x0); s != kNullNode;
           s = t.next_sibling(s)) {
        if (s == y0) return true;
      }
    }
  }
  return false;
}

TEST(OrdersTest, PrePostCharacterizeFollowing) {
  Rng rng(13);
  RandomTreeOptions opts;
  opts.num_nodes = 50;
  opts.attach_window = 5;
  Tree t = RandomTree(&rng, opts);
  TreeOrders o = ComputeOrders(t);
  for (NodeId x = 0; x < t.num_nodes(); ++x) {
    for (NodeId y = 0; y < t.num_nodes(); ++y) {
      bool by_orders = x < y && o.Post(x) < o.Post(y);
      EXPECT_EQ(by_orders, RefFollowing(t, x, y)) << "x=" << x << " y=" << y;
      EXPECT_EQ(by_orders, o.IsFollowing(x, y));
    }
  }
}

// Any two distinct nodes are related by exactly one of: x anc y, y anc x,
// Following(x,y), Following(y,x). (The document-order trichotomy used by the
// Theorem 5.1 rewriting.)
TEST(OrdersTest, DocumentOrderTrichotomy) {
  Rng rng(17);
  RandomTreeOptions opts;
  opts.num_nodes = 80;
  Tree t = RandomTree(&rng, opts);
  TreeOrders o = ComputeOrders(t);
  for (NodeId x = 0; x < t.num_nodes(); ++x) {
    for (NodeId y = 0; y < t.num_nodes(); ++y) {
      if (x == y) continue;
      int relations = (o.IsProperAncestor(x, y) ? 1 : 0) +
                      (o.IsProperAncestor(y, x) ? 1 : 0) +
                      (o.IsFollowing(x, y) ? 1 : 0) +
                      (o.IsFollowing(y, x) ? 1 : 0);
      EXPECT_EQ(relations, 1) << "x=" << x << " y=" << y;
    }
  }
}

TEST(OrdersTest, SubtreeEndPreBoundsSubtree) {
  Rng rng(19);
  RandomTreeOptions opts;
  opts.num_nodes = 100;
  Tree t = RandomTree(&rng, opts);
  TreeOrders o = ComputeOrders(t);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    for (NodeId v = 0; v < t.num_nodes(); ++v) {
      bool in_subtree = (v == n) || o.IsProperAncestor(n, v);
      bool in_range = v >= n && v < o.SubtreeEndPre(n);
      EXPECT_EQ(in_subtree, in_range);
    }
  }
}

TEST(OrdersTest, BflrOrderIsByDepthThenDocOrder) {
  Rng rng(23);
  RandomTreeOptions opts;
  opts.num_nodes = 120;
  Tree t = RandomTree(&rng, opts);
  TreeOrders o = ComputeOrders(t);
  std::vector<int> bflr = cq::RankOf(t, o, cq::TreeOrder::kBflr);
  for (NodeId x = 0; x < t.num_nodes(); ++x) {
    for (NodeId y = 0; y < t.num_nodes(); ++y) {
      if (x == y) continue;
      bool expect_less = o.depth[x] < o.depth[y] ||
                         (o.depth[x] == o.depth[y] && x < y);
      EXPECT_EQ(bflr[x] < bflr[y], expect_less);
    }
  }
}

TEST(OrdersTest, ChainOrders) {
  Tree t = Chain(5);
  TreeOrders o = ComputeOrders(t);
  std::vector<int> bflr = cq::RankOf(t, o, cq::TreeOrder::kBflr);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(o.Post(n), 4 - n);
    EXPECT_EQ(bflr[n], n);
    EXPECT_EQ(o.depth[n], n);
    EXPECT_EQ(o.size[n], 5 - n);
  }
}

TEST(OrdersTest, SingleNode) {
  Tree t = Chain(1);
  TreeOrders o = ComputeOrders(t);
  EXPECT_EQ(o.Post(0), 0);
  EXPECT_EQ(o.size[0], 1);
  EXPECT_EQ(o.SubtreeEndPre(0), 1);
}

}  // namespace
}  // namespace treeq
