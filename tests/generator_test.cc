#include "tree/generator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tree/orders.h"
#include "tree/xml.h"
#include "util/random.h"

namespace treeq {
namespace {

TEST(GeneratorTest, RandomTreeHasRequestedSize) {
  Rng rng(1);
  RandomTreeOptions opts;
  opts.num_nodes = 137;
  Tree t = RandomTree(&rng, opts);
  EXPECT_EQ(t.num_nodes(), 137);
  EXPECT_TRUE(t.IsRoot(t.root()));
}

TEST(GeneratorTest, RandomTreeIsDeterministicPerSeed) {
  RandomTreeOptions opts;
  opts.num_nodes = 64;
  Rng rng1(42), rng2(42), rng3(43);
  Tree a = RandomTree(&rng1, opts);
  Tree b = RandomTree(&rng2, opts);
  Tree c = RandomTree(&rng3, opts);
  bool same_ab = true, same_ac = true;
  for (NodeId n = 0; n < 64; ++n) {
    same_ab = same_ab && a.parent(n) == b.parent(n);
    same_ac = same_ac && a.parent(n) == c.parent(n);
  }
  EXPECT_TRUE(same_ab);
  EXPECT_FALSE(same_ac);  // different seed, overwhelmingly different shape
}

TEST(GeneratorTest, AttachWindowOneIsChain) {
  Rng rng(5);
  RandomTreeOptions opts;
  opts.num_nodes = 30;
  opts.attach_window = 1;
  Tree t = RandomTree(&rng, opts);
  EXPECT_EQ(t.Depth(), 29);
}

TEST(GeneratorTest, SecondLabelProbability) {
  Rng rng(7);
  RandomTreeOptions opts;
  opts.num_nodes = 500;
  opts.second_label_prob = 1.0;
  Tree t = RandomTree(&rng, opts);
  int multi = 0;
  for (NodeId n = 1; n < t.num_nodes(); ++n) {
    if (t.labels(n).size() >= 2) ++multi;
  }
  // With prob 1 every non-root draws a second label; it may collide with the
  // first (alphabet of 3), in which case it is deduplicated.
  EXPECT_GT(multi, 250);
}

TEST(GeneratorTest, ChainShape) {
  Tree t = Chain(6, "a", "b");
  EXPECT_EQ(t.num_nodes(), 6);
  EXPECT_EQ(t.Depth(), 5);
  EXPECT_TRUE(t.HasLabel(0, "a"));
  EXPECT_TRUE(t.HasLabel(1, "b"));
  EXPECT_TRUE(t.HasLabel(2, "a"));
  for (NodeId n = 0; n + 1 < 6; ++n) EXPECT_EQ(t.first_child(n), n + 1);
}

TEST(GeneratorTest, StarShape) {
  Tree t = Star(5);
  EXPECT_EQ(t.num_nodes(), 5);
  EXPECT_EQ(t.Depth(), 1);
  EXPECT_EQ(t.NumChildren(t.root()), 4);
}

TEST(GeneratorTest, BalancedTreeSize) {
  Tree t = BalancedTree(3, 2, {"x"});
  EXPECT_EQ(t.num_nodes(), 15);  // 1 + 2 + 4 + 8
  EXPECT_EQ(t.Depth(), 3);
  Tree t3 = BalancedTree(2, 3, {});
  EXPECT_EQ(t3.num_nodes(), 13);  // 1 + 3 + 9
}

TEST(GeneratorTest, BalancedTreeLabelsByDepth) {
  Tree t = BalancedTree(2, 2, {"d0", "d1", "d2"});
  TreeOrders o = ComputeOrders(t);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    EXPECT_TRUE(t.HasLabel(n, "d" + std::to_string(o.depth[n])));
  }
}

TEST(GeneratorTest, CaterpillarShape) {
  Tree t = Caterpillar(4, 3);
  EXPECT_EQ(t.num_nodes(), 4 + 4 * 3);
  EXPECT_EQ(t.Depth(), 4);  // spine of 4 (depths 0..3) + legs one deeper
  EXPECT_EQ(t.NumChildren(t.root()), 4);  // 3 legs + next spine node
}

TEST(GeneratorTest, CatalogStructure) {
  Rng rng(11);
  CatalogOptions opts;
  opts.num_products = 20;
  Tree t = CatalogDocument(&rng, opts);
  EXPECT_TRUE(t.HasLabel(t.root(), "catalog"));
  LabelId product = t.label_table().Lookup("product");
  ASSERT_NE(product, kNullLabel);
  std::vector<NodeId> products = t.NodesWithLabel(product);
  EXPECT_EQ(products.size(), 20u);
  for (NodeId p : products) {
    EXPECT_EQ(t.parent(p), t.root());
    // Every product has name and price as its first two children.
    NodeId name = t.first_child(p);
    ASSERT_NE(name, kNullNode);
    EXPECT_TRUE(t.HasLabel(name, "name"));
    NodeId price = t.next_sibling(name);
    ASSERT_NE(price, kNullNode);
    EXPECT_TRUE(t.HasLabel(price, "price"));
  }
}

TEST(GeneratorTest, CatalogReviewsHaveRatings) {
  Rng rng(13);
  CatalogOptions opts;
  opts.num_products = 50;
  Tree t = CatalogDocument(&rng, opts);
  LabelId review = t.label_table().Lookup("review");
  ASSERT_NE(review, kNullLabel);
  for (NodeId r : t.NodesWithLabel(review)) {
    NodeId rating = t.first_child(r);
    ASSERT_NE(rating, kNullNode);
    const std::string& name = t.label_table().Name(t.label(rating));
    EXPECT_TRUE(name.starts_with("rating")) << name;
  }
}

// The numbering rule of tree.h, checked against a reference walk of the
// links: the root is node 0, parent(v) < v, the subtree of v is exactly the
// id range [v, v + size(v)), and Post(v) is v's post-order rank.
void ExpectIdsArePreRanks(const Tree& t, const std::string& what) {
  SCOPED_TRACE(what);
  const int n = t.num_nodes();
  const TreeOrders o = ComputeOrders(t);
  ASSERT_EQ(t.root(), 0);
  EXPECT_TRUE(t.IsRoot(0));
  std::vector<int> pre(static_cast<size_t>(n), -1);
  std::vector<int> end(static_cast<size_t>(n), -1);  // pre count on exit
  std::vector<int> post(static_cast<size_t>(n), -1);
  int pre_count = 0;
  int post_count = 0;
  // Entries are a node to enter, or ~node to leave.
  std::vector<NodeId> stack = {t.root()};
  while (!stack.empty()) {
    const NodeId top = stack.back();
    stack.pop_back();
    if (top < 0) {
      end[static_cast<size_t>(~top)] = pre_count;
      post[static_cast<size_t>(~top)] = post_count++;
      continue;
    }
    pre[static_cast<size_t>(top)] = pre_count++;
    stack.push_back(~top);
    std::vector<NodeId> kids;
    for (NodeId c = t.first_child(top); c != kNullNode;
         c = t.next_sibling(c)) {
      kids.push_back(c);
    }
    stack.insert(stack.end(), kids.rbegin(), kids.rend());
  }
  ASSERT_EQ(pre_count, n);
  for (NodeId v = 0; v < n; ++v) {
    const size_t i = static_cast<size_t>(v);
    EXPECT_EQ(pre[i], v);
    if (v > 0) {
      EXPECT_LT(t.parent(v), v);
    }
    // The walk visits exactly v's subtree between entering and leaving v.
    EXPECT_EQ(end[i], v + o.size[i]) << "node " << v;
    EXPECT_EQ(o.SubtreeEndPre(v), end[i]) << "node " << v;
    EXPECT_EQ(o.Post(v), post[i]) << "node " << v;
  }
}

TEST(GeneratorTest, EveryGeneratorNumbersNodesInPreOrder) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    RandomTreeOptions opts;
    opts.num_nodes = 40 * static_cast<int>(seed);
    opts.attach_window = static_cast<int>(seed * 3);
    opts.second_label_prob = 0.3;
    ExpectIdsArePreRanks(RandomTree(&rng, opts),
                         "RandomTree seed " + std::to_string(seed));
  }
  ExpectIdsArePreRanks(BalancedTree(4, 3, {"a", "b"}), "BalancedTree(4, 3)");
  ExpectIdsArePreRanks(BalancedTree(0, 2, {"a"}), "BalancedTree(0, 2)");
  ExpectIdsArePreRanks(Caterpillar(6, 3), "Caterpillar(6, 3)");
  ExpectIdsArePreRanks(Chain(25, "a", "b"), "Chain(25)");
  ExpectIdsArePreRanks(Star(25), "Star(25)");
  Rng rng(3);
  CatalogOptions catalog;
  catalog.num_products = 15;
  const Tree doc = CatalogDocument(&rng, catalog);
  ExpectIdsArePreRanks(doc, "CatalogDocument");
  ExpectIdsArePreRanks(ParseXml(WriteXml(doc)).value(), "ParseXml");
  ExpectIdsArePreRanks(
      ParseXml("<a><b><c/><d x=\"1\">t</d></b><e/></a>").value(),
      "ParseXml literal");
}

// BalancedTree builds breadth first; after renumbering it is the tree a
// depth-first build of the same shape gives: same shape, labels by depth.
TEST(GeneratorTest, BalancedTreeEqualsItsDocumentOrderBuild) {
  TreeBuilder b;
  auto grow = [&](auto&& self, int depth) -> void {
    b.BeginNode(std::string(1, static_cast<char>('a' + depth % 3)));
    if (depth < 3) {
      for (int i = 0; i < 4; ++i) self(self, depth + 1);
    }
    b.EndNode();
  };
  grow(grow, 0);
  const Tree want = std::move(b.Finish()).value();
  const Tree got = BalancedTree(3, 4, {"a", "b", "c"});
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  EXPECT_EQ(WriteXml(got), WriteXml(want));
  for (NodeId v = 0; v < got.num_nodes(); ++v) {
    EXPECT_EQ(got.parent(v), want.parent(v));
    EXPECT_EQ(got.next_sibling(v), want.next_sibling(v));
  }
}

}  // namespace
}  // namespace treeq
