#include "tree/generator.h"

#include <algorithm>

#include "util/status.h"

namespace treeq {

Tree RandomTree(Rng* rng, const RandomTreeOptions& options) {
  TREEQ_CHECK(options.num_nodes >= 1);
  TREEQ_CHECK(options.attach_window >= 1);
  std::vector<std::string> alphabet = options.alphabet;
  if (alphabet.empty()) alphabet = {"a", "b", "c"};

  TreeBuilder builder;
  std::vector<NodeId> nodes;
  nodes.reserve(options.num_nodes);
  auto pick_label = [&]() {
    return alphabet[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(alphabet.size()) - 1))];
  };
  NodeId root = builder.AddChild(kNullNode, pick_label());
  nodes.push_back(root);
  for (int i = 1; i < options.num_nodes; ++i) {
    int64_t lo = std::max<int64_t>(0, static_cast<int64_t>(nodes.size()) -
                                          options.attach_window);
    NodeId parent =
        nodes[static_cast<size_t>(rng->Uniform(lo, nodes.size() - 1))];
    NodeId child = builder.AddChild(parent, pick_label());
    if (options.second_label_prob > 0 &&
        rng->Bernoulli(options.second_label_prob)) {
      builder.AddLabel(child, pick_label());
    }
    nodes.push_back(child);
  }
  Result<Tree> tree = builder.Finish();
  TREEQ_CHECK(tree.ok());
  return std::move(tree).value();
}

Tree Chain(int n, const std::string& label, const std::string& alternate) {
  TREEQ_CHECK(n >= 1);
  TreeBuilder builder;
  NodeId prev = kNullNode;
  for (int i = 0; i < n; ++i) {
    const std::string& l =
        (!alternate.empty() && i % 2 == 1) ? alternate : label;
    prev = builder.AddChild(prev, l);
  }
  Result<Tree> tree = builder.Finish();
  TREEQ_CHECK(tree.ok());
  return std::move(tree).value();
}

Tree Star(int n, const std::string& root_label, const std::string& leaf_label) {
  TREEQ_CHECK(n >= 1);
  TreeBuilder builder;
  NodeId root = builder.AddChild(kNullNode, root_label);
  for (int i = 1; i < n; ++i) builder.AddChild(root, leaf_label);
  Result<Tree> tree = builder.Finish();
  TREEQ_CHECK(tree.ok());
  return std::move(tree).value();
}

Tree BalancedTree(int depth, int fanout,
                  const std::vector<std::string>& alphabet) {
  TREEQ_CHECK(depth >= 0 && fanout >= 1);
  std::vector<std::string> labels = alphabet;
  if (labels.empty()) labels = {"a", "b", "c"};
  TreeBuilder builder;
  // Breadth-first construction; Finish numbers the nodes in pre order.
  struct Frontier {
    NodeId node;
    int depth;
  };
  NodeId root = builder.AddChild(
      kNullNode, labels[0 % labels.size()]);
  std::vector<Frontier> frontier = {{root, 0}};
  size_t head = 0;
  while (head < frontier.size()) {
    Frontier f = frontier[head++];
    if (f.depth == depth) continue;
    for (int i = 0; i < fanout; ++i) {
      NodeId c = builder.AddChild(
          f.node, labels[static_cast<size_t>(f.depth + 1) % labels.size()]);
      frontier.push_back({c, f.depth + 1});
    }
  }
  Result<Tree> tree = builder.Finish();
  TREEQ_CHECK(tree.ok());
  return std::move(tree).value();
}

Tree Caterpillar(int spine, int legs, const std::string& spine_label,
                 const std::string& leg_label) {
  TREEQ_CHECK(spine >= 1 && legs >= 0);
  TreeBuilder builder;
  NodeId prev = kNullNode;
  for (int i = 0; i < spine; ++i) {
    NodeId s = builder.AddChild(prev, spine_label);
    for (int j = 0; j < legs; ++j) builder.AddChild(s, leg_label);
    prev = s;
  }
  Result<Tree> tree = builder.Finish();
  TREEQ_CHECK(tree.ok());
  return std::move(tree).value();
}

Tree CatalogDocument(Rng* rng, const CatalogOptions& options) {
  TREEQ_CHECK(options.num_products >= 0);
  TreeBuilder builder;
  builder.BeginNode("catalog");
  for (int i = 0; i < options.num_products; ++i) {
    builder.BeginNode("product");
    builder.BeginNode("name");
    builder.EndNode();
    builder.BeginNode("price");
    builder.EndNode();
    builder.BeginNode("desc");
    int paragraphs =
        static_cast<int>(rng->Uniform(0, options.max_paragraphs));
    for (int p = 0; p < paragraphs; ++p) {
      builder.BeginNode("para");
      if (rng->Bernoulli(0.3)) {
        builder.BeginNode("emph");
        builder.EndNode();
      }
      builder.EndNode();
    }
    builder.EndNode();  // desc
    if (rng->Bernoulli(0.7)) {
      builder.BeginNode("reviews");
      int reviews = static_cast<int>(rng->Uniform(1, options.max_reviews));
      for (int r = 0; r < reviews; ++r) {
        builder.BeginNode("review");
        builder.BeginNode("rating" +
                          std::to_string(rng->Uniform(1, 5)));
        builder.EndNode();
        if (rng->Bernoulli(0.5)) {
          builder.BeginNode("comment");
          builder.EndNode();
        }
        builder.EndNode();  // review
      }
      builder.EndNode();  // reviews
    }
    builder.EndNode();  // product
  }
  builder.EndNode();  // catalog
  Result<Tree> tree = builder.Finish();
  TREEQ_CHECK(tree.ok());
  return std::move(tree).value();
}

}  // namespace treeq
