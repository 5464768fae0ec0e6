#include "tree/orders.h"

namespace treeq {

TreeOrders ComputeOrders(const Tree& tree) {
  const int n = tree.num_nodes();
  TreeOrders o;
  o.depth.assign(static_cast<size_t>(n), 0);
  o.size.assign(static_cast<size_t>(n), 1);
  // parent(v) < v, so one forward pass sees every parent's depth first and
  // one backward pass every child's size first.
  for (NodeId v = 1; v < n; ++v) o.depth[v] = o.depth[tree.parent(v)] + 1;
  for (NodeId v = n - 1; v > 0; --v) o.size[tree.parent(v)] += o.size[v];
  return o;
}

}  // namespace treeq
