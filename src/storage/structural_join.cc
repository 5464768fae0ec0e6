#include "storage/structural_join.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/status.h"

namespace treeq {

std::vector<JoinItem> MakeJoinItems(const TreeOrders& orders,
                                    const std::vector<NodeId>& nodes) {
  std::vector<JoinItem> items;
  items.reserve(nodes.size());
  for (NodeId n : nodes) {
    items.push_back(
        JoinItem{n, orders.SubtreeEndPre(n), orders.depth[n], n});
  }
  std::sort(items.begin(), items.end(),
            [](const JoinItem& a, const JoinItem& b) { return a.pre < b.pre; });
  return items;
}

std::vector<JoinItem> MakeJoinItemsForLabel(const Tree& tree,
                                            const TreeOrders& orders,
                                            LabelId label) {
  return MakeJoinItems(orders, tree.NodesWithLabel(label));
}

std::vector<std::pair<NodeId, NodeId>> StackTreeJoin(
    const std::vector<JoinItem>& ancestors,
    const std::vector<JoinItem>& descendants, bool parent_child) {
  std::vector<std::pair<NodeId, NodeId>> out;
  std::vector<JoinItem> stack;  // chain of nested ancestor candidates
  size_t ai = 0;

  for (const JoinItem& d : descendants) {
    // Admit all ancestor candidates that start before d.
    while (ai < ancestors.size() && ancestors[ai].pre <= d.pre) {
      const JoinItem& a = ancestors[ai++];
      // Pop candidates whose subtree ended before a starts; they can contain
      // no future node either (inputs are in document order).
      while (!stack.empty() && stack.back().end <= a.pre) {
        TREEQ_OBS_INC("storage.join.skipped_nodes");
        stack.pop_back();
      }
      TREEQ_OBS_INC("storage.join.stack_pushes");
      stack.push_back(a);
    }
    while (!stack.empty() && stack.back().end <= d.pre) {
      TREEQ_OBS_INC("storage.join.skipped_nodes");
      stack.pop_back();
    }
    // Every remaining stack entry contains d (stack entries are nested).
    for (const JoinItem& a : stack) {
      if (a.pre == d.pre) continue;  // a node is not its own ancestor
      if (parent_child && a.depth != d.depth - 1) continue;
      out.emplace_back(a.node, d.node);
    }
  }
  TREEQ_OBS_COUNT("storage.join.output_pairs", out.size());
  return out;
}

std::vector<std::pair<NodeId, NodeId>> NestedLoopJoin(
    const std::vector<JoinItem>& ancestors,
    const std::vector<JoinItem>& descendants, bool parent_child) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (const JoinItem& a : ancestors) {
    for (const JoinItem& d : descendants) {
      bool contains = a.pre < d.pre && d.pre < a.end;
      if (!contains) continue;
      if (parent_child && a.depth != d.depth - 1) continue;
      out.emplace_back(a.node, d.node);
    }
  }
  TREEQ_OBS_COUNT("storage.join.nested_loop_pairs", out.size());
  return out;
}

}  // namespace treeq
