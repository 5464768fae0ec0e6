#include "cq/yannakakis.h"

#include <vector>

namespace treeq {
namespace cq {

Result<ReducedQuery> FullReducer(const ConjunctiveQuery& query,
                                 const Document& doc, int root_var,
                                 AxisImageMemo* memo,
                                 const ExecContext& exec) {
  TREEQ_RETURN_IF_ERROR(query.Validate());
  if (!query.IsTreeShaped()) {
    return Status::InvalidArgument(
        "FullReducer requires a tree-shaped (connected, acyclic, simple) "
        "query: " +
        query.ToString());
  }
  if (root_var == -1) root_var = 0;
  if (root_var < 0 || root_var >= query.num_vars()) {
    return Status::InvalidArgument("root variable out of range");
  }
  const int n = doc.num_nodes();
  const int k = query.num_vars();

  // Orient the query tree away from the root: BFS over the (simple) graph.
  struct HalfEdge {
    int to;
    Axis axis;  // oriented from -> to
  };
  std::vector<std::vector<HalfEdge>> adj(k);
  for (const AxisAtom& a : query.axis_atoms()) {
    adj[a.var0].push_back({a.var1, a.axis});
    adj[a.var1].push_back({a.var0, InverseAxis(a.axis)});
  }
  ReducedQuery reduced;
  reduced.parent_var.assign(k, -1);
  reduced.parent_axis.assign(k, Axis::kSelf);
  std::vector<int> bfs_order;
  std::vector<char> seen(k, 0);
  bfs_order.push_back(root_var);
  seen[root_var] = 1;
  for (size_t head = 0; head < bfs_order.size(); ++head) {
    int v = bfs_order[head];
    for (const HalfEdge& e : adj[v]) {
      if (!seen[e.to]) {
        seen[e.to] = 1;
        reduced.parent_var[e.to] = v;
        reduced.parent_axis[e.to] = e.axis;
        bfs_order.push_back(e.to);
      }
    }
  }
  TREEQ_CHECK(static_cast<int>(bfs_order.size()) == k);  // connected

  reduced.candidates = LabelRestrictedCandidates(query, doc);

  // Bottom-up pass (the Yannakakis semijoin sweep toward the root): each
  // parent keeps only values with a partner in every child's candidate set.
  // Both sweeps route through AxisImageMemoized, so with a memo attached
  // repeated twigs over one document reuse each other's semijoin images.
  // Each image step charges 1 + n/64 whether or not the memo serves it, so
  // the visit accounting stays deterministic cached or not.
  NodeSet image(n);
  auto semijoin = [&](Axis axis, int from, int to) -> Status {
    TREEQ_RETURN_IF_ERROR(exec.Charge(
        1 + static_cast<uint64_t>(reduced.candidates[from].num_words())));
    AxisImageMemoized(doc.tree(), doc.orders(), axis,
                      reduced.candidates[from], &image, memo);
    reduced.candidates[to].IntersectWith(image);
    return Status::OK();
  };
  for (int i = k - 1; i >= 1; --i) {
    int v = bfs_order[i];
    // p = parent_var[v], p -- axis --> v; keep u in cand[p] iff exists w
    // in cand[v] with axis(u, w), i.e. u in image of cand[v] under axis^-1.
    TREEQ_RETURN_IF_ERROR(semijoin(InverseAxis(reduced.parent_axis[v]), v,
                                   reduced.parent_var[v]));
  }
  // Top-down pass: children keep only values reachable from the parent.
  for (int i = 1; i < k; ++i) {
    int v = bfs_order[i];
    TREEQ_RETURN_IF_ERROR(
        semijoin(reduced.parent_axis[v], reduced.parent_var[v], v));
  }

  reduced.satisfiable = true;
  for (const NodeSet& set : reduced.candidates) {
    if (set.empty()) reduced.satisfiable = false;
  }
  return reduced;
}

Result<bool> EvaluateBooleanAcyclic(const ConjunctiveQuery& query,
                                    const Document& doc,
                                    const ExecContext& exec,
                                    AxisImageMemo* memo) {
  TREEQ_ASSIGN_OR_RETURN(
      ReducedQuery reduced,
      FullReducer(query, doc, /*root_var=*/-1, memo, exec));
  return reduced.satisfiable;
}

Result<bool> EvaluateBooleanAcyclicForest(const ConjunctiveQuery& query,
                                          const Document& doc,
                                          const ExecContext& exec) {
  TREEQ_RETURN_IF_ERROR(query.Validate());
  // Split into connected components and run the reducer on each.
  const int k = query.num_vars();
  std::vector<int> comp(k, -1);
  std::vector<std::vector<int>> adj(k);
  for (const AxisAtom& a : query.axis_atoms()) {
    adj[a.var0].push_back(a.var1);
    adj[a.var1].push_back(a.var0);
  }
  int num_components = 0;
  for (int v = 0; v < k; ++v) {
    if (comp[v] != -1) continue;
    std::vector<int> stack = {v};
    comp[v] = num_components;
    while (!stack.empty()) {
      int u = stack.back();
      stack.pop_back();
      for (int w : adj[u]) {
        if (comp[w] == -1) {
          comp[w] = num_components;
          stack.push_back(w);
        }
      }
    }
    ++num_components;
  }
  for (int c = 0; c < num_components; ++c) {
    ConjunctiveQuery sub;
    std::vector<int> local(k, -1);
    for (int v = 0; v < k; ++v) {
      if (comp[v] == c) local[v] = sub.AddVar(query.var_names()[v]);
    }
    for (const AxisAtom& a : query.axis_atoms()) {
      if (comp[a.var0] == c) {
        sub.AddAxisAtom(a.axis, local[a.var0], local[a.var1]);
      }
    }
    for (const LabelAtom& a : query.label_atoms()) {
      if (comp[a.var] == c) sub.AddLabelAtom(a.label, local[a.var]);
    }
    TREEQ_ASSIGN_OR_RETURN(bool satisfiable,
                           EvaluateBooleanAcyclic(sub, doc, exec));
    if (!satisfiable) return false;
  }
  return true;
}

Result<NodeSet> EvaluateUnaryAcyclic(const ConjunctiveQuery& query,
                                     const Document& doc,
                                     const ExecContext& exec,
                                     AxisImageMemo* memo) {
  if (query.head_vars().size() != 1) {
    return Status::InvalidArgument("query is not unary");
  }
  TREEQ_ASSIGN_OR_RETURN(
      ReducedQuery reduced,
      FullReducer(query, doc, query.head_vars()[0], memo, exec));
  if (!reduced.satisfiable) return NodeSet(doc.num_nodes());
  return reduced.candidates[query.head_vars()[0]];
}

}  // namespace cq
}  // namespace treeq
