#include "tree/tree.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tree/xml.h"

namespace treeq {
namespace {

// The running example of the paper, Figure 1(a): root n1 with children
// n2, n3, n4; n4 has children n5, n6.
Tree Figure1Tree() {
  TreeBuilder b;
  NodeId n1 = b.AddChild(kNullNode, "n1");
  b.AddChild(n1, "n2");
  b.AddChild(n1, "n3");
  NodeId n4 = b.AddChild(n1, "n4");
  b.AddChild(n4, "n5");
  b.AddChild(n4, "n6");
  Result<Tree> t = b.Finish();
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(LabelTableTest, InternAndLookup) {
  LabelTable table;
  LabelId a = table.Intern("a");
  LabelId b = table.Intern("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("a"), a);
  EXPECT_EQ(table.Lookup("a"), a);
  EXPECT_EQ(table.Lookup("zzz"), kNullLabel);
  EXPECT_EQ(table.Name(a), "a");
  EXPECT_EQ(table.size(), 2);
}

TEST(TreeTest, Figure1Navigation) {
  Tree t = Figure1Tree();
  ASSERT_EQ(t.num_nodes(), 6);
  NodeId n1 = 0, n2 = 1, n3 = 2, n4 = 3, n5 = 4, n6 = 5;
  EXPECT_EQ(t.root(), n1);
  EXPECT_EQ(t.parent(n1), kNullNode);
  EXPECT_EQ(t.first_child(n1), n2);
  EXPECT_EQ(t.last_child(n1), n4);
  EXPECT_EQ(t.next_sibling(n2), n3);
  EXPECT_EQ(t.next_sibling(n3), n4);
  EXPECT_EQ(t.next_sibling(n4), kNullNode);
  EXPECT_EQ(t.prev_sibling(n3), n2);
  EXPECT_EQ(t.first_child(n4), n5);
  EXPECT_EQ(t.next_sibling(n5), n6);
  EXPECT_EQ(t.parent(n6), n4);
}

TEST(TreeTest, UnaryPredicates) {
  Tree t = Figure1Tree();
  NodeId n1 = 0, n2 = 1, n4 = 3, n6 = 5;
  EXPECT_TRUE(t.IsRoot(n1));
  EXPECT_FALSE(t.IsRoot(n2));
  EXPECT_TRUE(t.IsLeaf(n2));
  EXPECT_FALSE(t.IsLeaf(n4));
  EXPECT_TRUE(t.IsFirstSibling(n1));  // root is trivially first
  EXPECT_TRUE(t.IsFirstSibling(n2));
  EXPECT_FALSE(t.IsFirstSibling(n4));
  EXPECT_TRUE(t.IsLastSibling(n4));
  EXPECT_TRUE(t.IsLastSibling(n6));
  EXPECT_FALSE(t.IsLastSibling(n2));
}

TEST(TreeTest, LabelsAndMultiLabels) {
  TreeBuilder b;
  NodeId root = b.AddChild(kNullNode, "a");
  b.AddLabel(root, "b");
  b.AddLabel(root, "a");  // duplicate, must not double-insert
  NodeId child = b.AddChild(root, std::vector<std::string>{"x", "y"});
  Result<Tree> tr = b.Finish();
  ASSERT_TRUE(tr.ok());
  const Tree& t = tr.value();
  EXPECT_EQ(t.labels(root).size(), 2u);
  EXPECT_TRUE(t.HasLabel(root, "a"));
  EXPECT_TRUE(t.HasLabel(root, "b"));
  EXPECT_FALSE(t.HasLabel(root, "x"));
  EXPECT_TRUE(t.HasLabel(child, "x"));
  EXPECT_TRUE(t.HasLabel(child, "y"));
  EXPECT_EQ(t.label(root), t.label_table().Lookup("a"));
}

TEST(TreeTest, NodesWithLabel) {
  Tree t = Figure1Tree();
  LabelId n4 = t.label_table().Lookup("n4");
  std::vector<NodeId> nodes = t.NodesWithLabel(n4);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], 3);
}

TEST(TreeTest, NumChildrenAndDepth) {
  Tree t = Figure1Tree();
  EXPECT_EQ(t.NumChildren(0), 3);
  EXPECT_EQ(t.NumChildren(3), 2);
  EXPECT_EQ(t.NumChildren(1), 0);
  EXPECT_EQ(t.Depth(), 2);
}

TEST(TreeBuilderTest, DocumentStyle) {
  TreeBuilder b;
  b.BeginNode("root");
  b.BeginNode("a");
  b.EndNode();
  b.BeginNode("b");
  b.BeginNode("c");
  b.EndNode();
  b.EndNode();
  b.EndNode();
  Result<Tree> tr = b.Finish();
  ASSERT_TRUE(tr.ok());
  const Tree& t = tr.value();
  ASSERT_EQ(t.num_nodes(), 4);
  EXPECT_TRUE(t.HasLabel(0, "root"));
  EXPECT_EQ(t.parent(3), 2);  // c under b
  EXPECT_EQ(t.next_sibling(1), 2);
}

TEST(TreeBuilderTest, MixedStyles) {
  TreeBuilder b;
  NodeId root = b.BeginNode("root");
  b.BeginNode("kid");
  b.EndNode();
  b.EndNode();
  NodeId extra = b.AddChild(root, "extra");
  Result<Tree> tr = b.Finish();
  ASSERT_TRUE(tr.ok());
  EXPECT_EQ(tr.value().parent(extra), root);
  EXPECT_EQ(tr.value().next_sibling(1), extra);
}

// Finish renumbers an out-of-order AddChild build into pre order: the result
// is the tree a BeginNode/EndNode build gives, each node keeping its labels.
TEST(TreeBuilderTest, OutOfOrderBuildIsRenumberedInPreOrder) {
  // r -> (a -> (c, d), b -> e), built breadth first with b's child before
  // a's, and labels added after later nodes exist.
  TreeBuilder bfs;
  NodeId r = bfs.AddChild(kNullNode, "r");
  NodeId a = bfs.AddChild(r, "a");
  NodeId b = bfs.AddChild(r, "b");
  bfs.AddChild(b, "e");
  NodeId c = bfs.AddChild(a, "c");
  bfs.AddChild(a, std::vector<std::string>{"d", "d2"});
  bfs.AddLabel(c, "c2");
  bfs.AddLabel(r, "r2");
  Result<Tree> got = bfs.Finish();
  ASSERT_TRUE(got.ok());

  TreeBuilder doc;
  doc.BeginNode(std::vector<std::string>{"r", "r2"});
  doc.BeginNode("a");
  doc.BeginNode(std::vector<std::string>{"c", "c2"});
  doc.EndNode();
  doc.BeginNode(std::vector<std::string>{"d", "d2"});
  doc.EndNode();
  doc.EndNode();
  doc.BeginNode("b");
  doc.BeginNode("e");
  doc.EndNode();
  doc.EndNode();
  doc.EndNode();
  Result<Tree> want = doc.Finish();
  ASSERT_TRUE(want.ok());

  const Tree& g = got.value();
  const Tree& w = want.value();
  EXPECT_EQ(WriteXml(g), WriteXml(w));
  ASSERT_EQ(g.num_nodes(), w.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.parent(v), w.parent(v)) << v;
    EXPECT_EQ(g.first_child(v), w.first_child(v)) << v;
    EXPECT_EQ(g.last_child(v), w.last_child(v)) << v;
    EXPECT_EQ(g.next_sibling(v), w.next_sibling(v)) << v;
    EXPECT_EQ(g.prev_sibling(v), w.prev_sibling(v)) << v;
    std::vector<std::string> g_labels, w_labels;
    for (LabelId l : g.labels(v)) g_labels.push_back(g.label_table().Name(l));
    for (LabelId l : w.labels(v)) w_labels.push_back(w.label_table().Name(l));
    EXPECT_EQ(g_labels, w_labels) << v;
  }
}

TEST(TreeBuilderTest, UnclosedNodeFailsFinish) {
  TreeBuilder b;
  b.BeginNode("root");
  Result<Tree> tr = b.Finish();
  EXPECT_FALSE(tr.ok());
  EXPECT_EQ(tr.status().code(), StatusCode::kInvalidArgument);
}

TEST(TreeBuilderTest, EmptyTreeFailsFinish) {
  TreeBuilder b;
  Result<Tree> tr = b.Finish();
  EXPECT_FALSE(tr.ok());
}

TEST(TreeTest, OutlineRendersStructure) {
  Tree t = Figure1Tree();
  std::string outline = ToOutline(t);
  EXPECT_NE(outline.find("n1\n"), std::string::npos);
  EXPECT_NE(outline.find("  n2\n"), std::string::npos);
  EXPECT_NE(outline.find("    n5\n"), std::string::npos);
}

}  // namespace
}  // namespace treeq
