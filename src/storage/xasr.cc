#include "storage/xasr.h"

#include <algorithm>
#include <set>

namespace treeq {

Xasr Xasr::Build(const Tree& tree, const TreeOrders& orders) {
  Xasr xasr;
  const int n = tree.num_nodes();
  xasr.rows_.resize(n);
  // Node ids are pre ranks, so row v is node v.
  for (NodeId v = 0; v < n; ++v) {
    XasrRow& row = xasr.rows_[v];
    row.pre = v;
    row.post = orders.Post(v);
    row.parent_pre = tree.IsRoot(v) ? XasrRow::kNoParent : tree.parent(v);
    row.label = tree.label(v);
  }
  return xasr;
}

std::vector<std::pair<int, int>> Xasr::DescendantView() const {
  std::vector<std::pair<int, int>> out;
  for (const XasrRow& r1 : rows_) {
    for (const XasrRow& r2 : rows_) {
      if (r1.pre < r2.pre && r2.post < r1.post) {
        out.emplace_back(r1.pre, r2.pre);
      }
    }
  }
  return out;
}

std::vector<std::pair<int, int>> Xasr::ChildView() const {
  std::vector<std::pair<int, int>> out;
  for (const XasrRow& r : rows_) {
    if (r.parent_pre != XasrRow::kNoParent) {
      out.emplace_back(r.parent_pre, r.pre);
    }
  }
  return out;
}

std::vector<int> Xasr::PresWithLabel(LabelId label) const {
  std::vector<int> out;
  for (const XasrRow& r : rows_) {
    if (r.label == label) out.push_back(r.pre);
  }
  return out;
}

std::vector<std::pair<int, int>> DescendantByIteratedJoins(const Xasr& xasr) {
  // closure := Child; repeat closure := closure ∪ (closure ⋈ Child) until no
  // change. Deliberately the naive relational plan.
  std::vector<std::pair<int, int>> child = xasr.ChildView();
  std::set<std::pair<int, int>> closure(child.begin(), child.end());
  // Index Child by first column for the join.
  std::vector<std::vector<int>> child_of(xasr.num_rows());
  for (const auto& [p, c] : child) child_of[p].push_back(c);

  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<std::pair<int, int>> additions;
    for (const auto& [a, b] : closure) {
      for (int c : child_of[b]) {
        if (!closure.count({a, c})) additions.emplace_back(a, c);
      }
    }
    for (const auto& p : additions) {
      if (closure.insert(p).second) changed = true;
    }
  }
  return {closure.begin(), closure.end()};
}

}  // namespace treeq
