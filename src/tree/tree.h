#ifndef TREEQ_TREE_TREE_H_
#define TREEQ_TREE_TREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

/// \file tree.h
/// Unranked ordered finite labeled trees (Section 2 of the paper). A tree is
/// stored as a contiguous node arena with FirstChild / NextSibling / Parent /
/// PrevSibling links — the binary representation of Figure 1(b). Nodes may
/// carry multiple labels (the paper's (Lab_a) relations allow this).
///
/// Node ids are document order: id v is v's pre-order rank. The root is
/// node 0, parent(v) < v, and the subtree of v is the id range
/// [v, v + size(v)) (tree/orders.h). TreeBuilder::Finish guarantees this
/// for every tree, however it was built.

namespace treeq {

/// Index of a node within its Tree, equal to its pre-order rank. Dense in
/// [0, Tree::num_nodes()).
using NodeId = int32_t;

/// Sentinel for "no node" (e.g. the parent of the root).
inline constexpr NodeId kNullNode = -1;

/// Interned label. Dense in [0, LabelTable::size()).
using LabelId = int32_t;

inline constexpr LabelId kNullLabel = -1;

/// Bidirectional mapping between label strings (the alphabet Sigma) and dense
/// LabelIds. The alphabet is not assumed fixed, matching the paper.
class LabelTable {
 public:
  /// Returns the id for `name`, interning it if new.
  LabelId Intern(std::string_view name);

  /// Returns the id for `name`, or kNullLabel if it was never interned.
  /// Heterogeneous lookup: no temporary std::string per probe.
  LabelId Lookup(std::string_view name) const;

  /// Returns the string for `id`. Requires a valid id.
  const std::string& Name(LabelId id) const;

  int size() const { return static_cast<int>(names_.size()); }

 private:
  /// Transparent hash so the map accepts string_view probes directly.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, LabelId, StringHash, std::equal_to<>> ids_;
};

/// An immutable unranked ordered labeled tree. Construct via TreeBuilder.
///
/// Navigation accessors are O(1); they realize the binary relations Child,
/// FirstChild, NextSibling (and inverses) of the paper's tree signatures.
class Tree {
 public:
  NodeId root() const { return 0; }
  int num_nodes() const { return static_cast<int>(parent_.size()); }

  /// kNullNode for the root.
  NodeId parent(NodeId n) const { return parent_[n]; }
  /// kNullNode if `n` is a leaf.
  NodeId first_child(NodeId n) const { return first_child_[n]; }
  NodeId last_child(NodeId n) const { return last_child_[n]; }
  /// kNullNode if `n` is a last sibling.
  NodeId next_sibling(NodeId n) const { return next_sibling_[n]; }
  NodeId prev_sibling(NodeId n) const { return prev_sibling_[n]; }

  /// Unary predicates of the datalog signature tau+ (Section 3).
  bool IsRoot(NodeId n) const { return parent_[n] == kNullNode; }
  bool IsLeaf(NodeId n) const { return first_child_[n] == kNullNode; }
  bool IsFirstSibling(NodeId n) const { return prev_sibling_[n] == kNullNode; }
  bool IsLastSibling(NodeId n) const { return next_sibling_[n] == kNullNode; }

  /// The labels of node `n` (possibly several; possibly none).
  const std::vector<LabelId>& labels(NodeId n) const { return labels_[n]; }

  /// True iff node `n` carries label `label` (the Lab_a(n) relation).
  bool HasLabel(NodeId n, LabelId label) const;
  bool HasLabel(NodeId n, std::string_view name) const;

  /// The first label of `n`, or kNullLabel if unlabeled. Convenient for
  /// single-labeled (XML-like) trees.
  LabelId label(NodeId n) const {
    return labels_[n].empty() ? kNullLabel : labels_[n][0];
  }

  const LabelTable& label_table() const { return label_table_; }
  LabelTable& mutable_label_table() { return label_table_; }

  /// All nodes carrying `label`, in node-id order. O(n) scan.
  std::vector<NodeId> NodesWithLabel(LabelId label) const;

  /// Number of children of `n`. O(#children).
  int NumChildren(NodeId n) const;

  /// Depth of the tree (root has depth 0; a single-node tree has depth 0).
  int Depth() const;

 private:
  friend class TreeBuilder;
  Tree() = default;

  std::vector<NodeId> parent_;
  std::vector<NodeId> first_child_;
  std::vector<NodeId> last_child_;
  std::vector<NodeId> next_sibling_;
  std::vector<NodeId> prev_sibling_;
  std::vector<std::vector<LabelId>> labels_;
  LabelTable label_table_;
};

/// Incremental constructor for Tree. Two styles are supported and may be
/// mixed:
///  - document style: BeginNode(label) ... EndNode() nested calls;
///  - random-access style: AddChild(parent, label) appending a last child.
///
/// The first created node becomes the root. Finish() validates and returns
/// the tree; the builder must not be reused afterwards. Ids returned while
/// building are final only for a build in document order (every BeginNode
/// build, and AddChild calls that append in pre order); Finish renumbers any
/// other build so that ids are pre-order ranks, each node keeping its labels.
class TreeBuilder {
 public:
  TreeBuilder() = default;

  /// Opens a new node as the last child of the currently open node (or as the
  /// root if none is open). Returns its id.
  NodeId BeginNode(std::string_view label);
  NodeId BeginNode(const std::vector<std::string>& node_labels);

  /// Closes the most recently opened node.
  void EndNode();

  /// Appends a new last child under `parent` (kNullNode creates the root;
  /// allowed only once). Returns its id.
  NodeId AddChild(NodeId parent, std::string_view label);
  NodeId AddChild(NodeId parent, const std::vector<std::string>& node_labels);

  /// Adds an extra label to an existing node.
  void AddLabel(NodeId node, std::string_view label);

  int num_nodes() const { return static_cast<int>(tree_.parent_.size()); }

  /// Validates (single root, all BeginNode calls closed) and returns the
  /// finished tree, its nodes numbered in pre order.
  Result<Tree> Finish();

 private:
  NodeId NewNode(NodeId parent);
  /// Renumbers tree_ so that ids are pre-order ranks, in one pass over the
  /// links; a tree already in pre order is left as it is.
  void NumberInPreOrder();

  Tree tree_;
  std::vector<NodeId> open_stack_;
  bool finished_ = false;
};

/// Renders the tree as an indented ASCII outline (for debugging and example
/// output).
std::string ToOutline(const Tree& tree);

}  // namespace treeq

#endif  // TREEQ_TREE_TREE_H_
