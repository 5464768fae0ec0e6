#include "cq/x_property.h"

#include <algorithm>

namespace treeq {
namespace cq {

const char* TreeOrderName(TreeOrder order) {
  switch (order) {
    case TreeOrder::kPre:
      return "<pre";
    case TreeOrder::kPost:
      return "<post";
    case TreeOrder::kBflr:
      return "<bflr";
  }
  return "";
}

std::vector<int> RankOf(const Tree& tree, const TreeOrders& orders,
                        TreeOrder order) {
  const int n = tree.num_nodes();
  std::vector<int> rank(static_cast<size_t>(n));
  switch (order) {
    case TreeOrder::kPre:
      // Node ids are pre ranks.
      for (NodeId v = 0; v < n; ++v) rank[v] = v;
      break;
    case TreeOrder::kPost:
      for (NodeId v = 0; v < n; ++v) rank[v] = orders.Post(v);
      break;
    case TreeOrder::kBflr: {
      // Breadth-first left to right: `queue` doubles as the visit order.
      std::vector<NodeId> queue = {tree.root()};
      queue.reserve(static_cast<size_t>(n));
      for (size_t head = 0; head < queue.size(); ++head) {
        rank[queue[head]] = static_cast<int>(head);
        for (NodeId c = tree.first_child(queue[head]); c != kNullNode;
             c = tree.next_sibling(c)) {
          queue.push_back(c);
        }
      }
      break;
    }
  }
  return rank;
}

bool HasXProperty(const std::vector<std::pair<NodeId, NodeId>>& relation,
                  const std::vector<int>& rank) {
  // For crossing arcs (n1, n2), (n0, n3) with n0 < n1 and n2 < n3, the
  // "underbar" arc (n0, n2) must be present.
  auto contains = [&relation](NodeId a, NodeId b) {
    return std::find(relation.begin(), relation.end(),
                     std::make_pair(a, b)) != relation.end();
  };
  for (const auto& [n1, n2] : relation) {
    for (const auto& [n0, n3] : relation) {
      if (rank[n0] < rank[n1] && rank[n2] < rank[n3] && !contains(n0, n2)) {
        return false;
      }
    }
  }
  return true;
}

bool AxisHasXPropertyOn(const Tree& tree, const TreeOrders& orders, Axis axis,
                        TreeOrder order) {
  return HasXProperty(MaterializeAxis(tree, orders, axis),
                      RankOf(tree, orders, order));
}

bool XPropertyHolds(Axis axis, TreeOrder order) {
  // Self holds trivially under any order (the premise of Definition 6.3 is
  // unsatisfiable for a subset of the identity).
  if (axis == Axis::kSelf) return true;
  switch (order) {
    case TreeOrder::kPre:
      // tau_1 (Proposition 6.6(1)). FirstChild also holds: a first child is
      // always its parent's immediate <pre successor, so FirstChild pairs
      // are (i, i+1) and crossing arcs cannot exist.
      return axis == Axis::kDescendant || axis == Axis::kDescendantOrSelf ||
             axis == Axis::kFirstChild;
    case TreeOrder::kPost:
      // tau_2 (Proposition 6.6(2)).
      return axis == Axis::kFollowing;
    case TreeOrder::kBflr:
      // tau_3 (Proposition 6.6(3)); FirstChild holds as well because it is
      // monotone in <bflr, making crossing arcs impossible.
      return axis == Axis::kChild || axis == Axis::kNextSibling ||
             axis == Axis::kFollowingSiblingOrSelf ||
             axis == Axis::kFollowingSibling || axis == Axis::kFirstChild;
  }
  return false;
}

std::optional<TreeOrder> PickXOrder(const ConjunctiveQuery& query) {
  ConjunctiveQuery normalized = query;
  normalized.NormalizeInverseAxes();
  for (TreeOrder order :
       {TreeOrder::kPre, TreeOrder::kPost, TreeOrder::kBflr}) {
    bool all = true;
    for (Axis axis : normalized.AxesUsed()) {
      if (!XPropertyHolds(axis, order)) {
        all = false;
        break;
      }
    }
    if (all) return order;
  }
  return std::nullopt;
}

namespace {

template <typename Less>
std::vector<NodeId> MinimumBy(const PreValuation& theta, Less less) {
  std::vector<NodeId> valuation(theta.size(), kNullNode);
  for (size_t x = 0; x < theta.size(); ++x) {
    NodeId best = kNullNode;
    theta[x].ForEachMember([&](NodeId v) {
      if (best == kNullNode || less(v, best)) best = v;
    });
    valuation[x] = best;
  }
  return valuation;
}

}  // namespace

std::vector<NodeId> MinimumValuation(const PreValuation& theta,
                                     const std::vector<int>& rank) {
  return MinimumBy(theta,
                   [&](NodeId a, NodeId b) { return rank[a] < rank[b]; });
}

std::vector<NodeId> MinimumValuation(const PreValuation& theta,
                                     const TreeOrders& orders,
                                     TreeOrder order) {
  switch (order) {
    case TreeOrder::kPre:
      return MinimumBy(theta, [](NodeId a, NodeId b) { return a < b; });
    case TreeOrder::kPost:
      return MinimumBy(theta, [&](NodeId a, NodeId b) {
        return orders.Post(a) < orders.Post(b);
      });
    case TreeOrder::kBflr:
      // Breadth-first left to right is depth first, then document order.
      return MinimumBy(theta, [&](NodeId a, NodeId b) {
        return std::pair(orders.depth[a], a) < std::pair(orders.depth[b], b);
      });
  }
  TREEQ_CHECK(false);
  return {};
}

namespace {

bool ValuationSatisfies(const ConjunctiveQuery& query, const Tree& tree,
                        const TreeOrders& orders,
                        const std::vector<NodeId>& valuation) {
  for (const LabelAtom& a : query.label_atoms()) {
    if (!tree.HasLabel(valuation[a.var], a.label)) return false;
  }
  for (const AxisAtom& a : query.axis_atoms()) {
    if (!AxisHolds(tree, orders, a.axis, valuation[a.var0],
                   valuation[a.var1])) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<XEvalResult> EvaluateXProperty(const ConjunctiveQuery& query,
                                      const Document& doc, TreeOrder order,
                                      AcImplementation ac,
                                      const ExecContext& exec) {
  TREEQ_RETURN_IF_ERROR(query.Validate());
  ConjunctiveQuery normalized = query;
  normalized.NormalizeInverseAxes();
  for (Axis axis : normalized.AxesUsed()) {
    if (!XPropertyHolds(axis, order)) {
      return Status::InvalidArgument(
          std::string("axis ") + AxisName(axis) +
          " lacks the X-property w.r.t. " + TreeOrderName(order));
    }
  }
  AcResult acr = ComputeMaxArcConsistent(normalized, doc, ac,
                                         /*initial=*/nullptr, exec);
  TREEQ_RETURN_IF_ERROR(acr.status);
  XEvalResult result;
  if (!acr.consistent) {
    result.satisfiable = false;
    return result;
  }
  // Lemma 6.4: the minimum valuation is consistent.
  result.witness = MinimumValuation(acr.theta, doc.orders(), order);
  if (!ValuationSatisfies(normalized, doc.tree(), doc.orders(),
                          result.witness)) {
    return Status::Internal(
        "minimum valuation not consistent — Lemma 6.4 violated (bug)");
  }
  result.satisfiable = true;
  return result;
}

Result<bool> XPropertyTupleCheck(const ConjunctiveQuery& query,
                                 const Document& doc, TreeOrder order,
                                 const std::vector<NodeId>& tuple) {
  if (tuple.size() != query.head_vars().size()) {
    return Status::InvalidArgument("tuple arity mismatch");
  }
  ConjunctiveQuery normalized = query;
  normalized.NormalizeInverseAxes();
  for (Axis axis : normalized.AxesUsed()) {
    if (!XPropertyHolds(axis, order)) {
      return Status::InvalidArgument(
          std::string("axis ") + AxisName(axis) +
          " lacks the X-property w.r.t. " + TreeOrderName(order));
    }
  }
  // Singleton relations X_i = {a_i} (Section 6), expressed as an initial
  // pre-valuation restriction.
  const int n = doc.num_nodes();
  PreValuation initial(normalized.num_vars(), NodeSet::All(n));
  for (size_t i = 0; i < tuple.size(); ++i) {
    NodeSet singleton = NodeSet::Singleton(n, tuple[i]);
    initial[normalized.head_vars()[i]].IntersectWith(singleton);
  }
  AcResult acr = ComputeMaxArcConsistent(normalized, doc,
                                         AcImplementation::kDirect, &initial);
  if (!acr.consistent) return false;
  std::vector<NodeId> witness =
      MinimumValuation(acr.theta, doc.orders(), order);
  if (!ValuationSatisfies(normalized, doc.tree(), doc.orders(), witness)) {
    return Status::Internal(
        "minimum valuation not consistent — Lemma 6.4 violated (bug)");
  }
  return true;
}

}  // namespace cq
}  // namespace treeq
