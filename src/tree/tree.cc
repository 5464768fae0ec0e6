#include "tree/tree.h"

#include <algorithm>

namespace treeq {

LabelId LabelTable::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  LabelId id = static_cast<LabelId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

LabelId LabelTable::Lookup(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kNullLabel : it->second;
}

const std::string& LabelTable::Name(LabelId id) const {
  TREEQ_CHECK(id >= 0 && id < size());
  return names_[id];
}

bool Tree::HasLabel(NodeId n, LabelId label) const {
  const std::vector<LabelId>& ls = labels_[n];
  return std::find(ls.begin(), ls.end(), label) != ls.end();
}

bool Tree::HasLabel(NodeId n, std::string_view name) const {
  LabelId id = label_table_.Lookup(name);
  return id != kNullLabel && HasLabel(n, id);
}

std::vector<NodeId> Tree::NodesWithLabel(LabelId label) const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (HasLabel(n, label)) out.push_back(n);
  }
  return out;
}

int Tree::NumChildren(NodeId n) const {
  int count = 0;
  for (NodeId c = first_child_[n]; c != kNullNode; c = next_sibling_[c]) {
    ++count;
  }
  return count;
}

int Tree::Depth() const {
  if (num_nodes() == 0) return 0;
  std::vector<int> depth(num_nodes(), 0);
  int max_depth = 0;
  // parent(n) < n: node ids are pre-order ranks.
  for (NodeId n = 1; n < num_nodes(); ++n) {
    depth[n] = depth[parent_[n]] + 1;
    max_depth = std::max(max_depth, depth[n]);
  }
  return max_depth;
}

NodeId TreeBuilder::NewNode(NodeId parent) {
  TREEQ_CHECK(!finished_);
  NodeId id = static_cast<NodeId>(tree_.parent_.size());
  tree_.parent_.push_back(parent);
  tree_.first_child_.push_back(kNullNode);
  tree_.last_child_.push_back(kNullNode);
  tree_.next_sibling_.push_back(kNullNode);
  tree_.prev_sibling_.push_back(kNullNode);
  tree_.labels_.emplace_back();
  if (parent != kNullNode) {
    NodeId prev = tree_.last_child_[parent];
    if (prev == kNullNode) {
      tree_.first_child_[parent] = id;
    } else {
      tree_.next_sibling_[prev] = id;
      tree_.prev_sibling_[id] = prev;
    }
    tree_.last_child_[parent] = id;
  }
  return id;
}

NodeId TreeBuilder::BeginNode(std::string_view label) {
  NodeId parent = open_stack_.empty() ? kNullNode : open_stack_.back();
  TREEQ_CHECK(parent != kNullNode || num_nodes() == 0);
  NodeId id = NewNode(parent);
  AddLabel(id, label);
  open_stack_.push_back(id);
  return id;
}

NodeId TreeBuilder::BeginNode(const std::vector<std::string>& node_labels) {
  NodeId parent = open_stack_.empty() ? kNullNode : open_stack_.back();
  TREEQ_CHECK(parent != kNullNode || num_nodes() == 0);
  NodeId id = NewNode(parent);
  for (const std::string& l : node_labels) AddLabel(id, l);
  open_stack_.push_back(id);
  return id;
}

void TreeBuilder::EndNode() {
  TREEQ_CHECK(!open_stack_.empty());
  open_stack_.pop_back();
}

NodeId TreeBuilder::AddChild(NodeId parent, std::string_view label) {
  TREEQ_CHECK(parent != kNullNode || num_nodes() == 0);
  NodeId id = NewNode(parent);
  AddLabel(id, label);
  return id;
}

NodeId TreeBuilder::AddChild(NodeId parent,
                             const std::vector<std::string>& node_labels) {
  TREEQ_CHECK(parent != kNullNode || num_nodes() == 0);
  NodeId id = NewNode(parent);
  for (const std::string& l : node_labels) AddLabel(id, l);
  return id;
}

void TreeBuilder::AddLabel(NodeId node, std::string_view label) {
  TREEQ_CHECK(node >= 0 && node < num_nodes());
  LabelId id = tree_.label_table_.Intern(label);
  if (!tree_.HasLabel(node, id)) tree_.labels_[node].push_back(id);
}

Result<Tree> TreeBuilder::Finish() {
  if (finished_) return Status::Internal("TreeBuilder::Finish called twice");
  if (!open_stack_.empty()) {
    return Status::InvalidArgument("unclosed BeginNode calls at Finish");
  }
  if (num_nodes() == 0) {
    return Status::InvalidArgument("cannot build an empty tree");
  }
  finished_ = true;
  NumberInPreOrder();
  return std::move(tree_);
}

void TreeBuilder::NumberInPreOrder() {
  Tree& t = tree_;
  const int n = t.num_nodes();
  // old_at[i]: the builder id of the node with pre rank i. The walk follows
  // FirstChild, else NextSibling, else climbs to the nearest ancestor that
  // has a next sibling.
  std::vector<NodeId> old_at;
  old_at.reserve(static_cast<size_t>(n));
  bool identity = true;
  for (NodeId v = 0; v != kNullNode;) {
    identity = identity && v == static_cast<NodeId>(old_at.size());
    old_at.push_back(v);
    if (t.first_child_[v] != kNullNode) {
      v = t.first_child_[v];
      continue;
    }
    while (v != kNullNode && t.next_sibling_[v] == kNullNode) {
      v = t.parent_[v];
    }
    if (v != kNullNode) v = t.next_sibling_[v];
  }
  if (identity) return;

  std::vector<NodeId> new_id(static_cast<size_t>(n));
  for (NodeId i = 0; i < n; ++i) new_id[old_at[i]] = i;
  auto renumber = [&](std::vector<NodeId>* links) {
    std::vector<NodeId> out(static_cast<size_t>(n));
    for (NodeId i = 0; i < n; ++i) {
      const NodeId l = (*links)[old_at[i]];
      out[i] = l == kNullNode ? kNullNode : new_id[l];
    }
    links->swap(out);
  };
  renumber(&t.parent_);
  renumber(&t.first_child_);
  renumber(&t.last_child_);
  renumber(&t.next_sibling_);
  renumber(&t.prev_sibling_);
  std::vector<std::vector<LabelId>> labels(static_cast<size_t>(n));
  for (NodeId i = 0; i < n; ++i) labels[i] = std::move(t.labels_[old_at[i]]);
  t.labels_.swap(labels);
}

namespace {

void OutlineRec(const Tree& tree, NodeId n, int indent, std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  bool first = true;
  for (LabelId l : tree.labels(n)) {
    if (!first) out->push_back(',');
    out->append(tree.label_table().Name(l));
    first = false;
  }
  if (first) out->append("(unlabeled)");
  out->push_back('\n');
  for (NodeId c = tree.first_child(n); c != kNullNode;
       c = tree.next_sibling(c)) {
    OutlineRec(tree, c, indent + 1, out);
  }
}

}  // namespace

std::string ToOutline(const Tree& tree) {
  std::string out;
  OutlineRec(tree, tree.root(), 0, &out);
  return out;
}

}  // namespace treeq
