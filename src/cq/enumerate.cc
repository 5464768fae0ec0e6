#include "cq/enumerate.h"

#include <algorithm>
#include <vector>

namespace treeq {
namespace cq {

namespace {

/// Figure 6, iteratively over the DFS variable order x1, ..., xn, with the
/// pointer refinement of Proposition 6.10: a variable's values under a
/// parent binding u are read off u's partners along the parent axis —
/// a pre-order interval for the subtree and following axes, a pointer walk
/// for the rest — never by scanning the universe.
class SolutionEnumerator {
 public:
  SolutionEnumerator(const ConjunctiveQuery& query, const Tree& tree,
                     const TreeOrders& orders, const ReducedQuery& reduced,
                     const ExecContext& exec)
      : query_(query), tree_(tree), orders_(orders), reduced_(reduced),
        exec_(exec) {}

  Result<std::vector<std::vector<NodeId>>> Run(uint64_t limit) {
    const int k = query_.num_vars();
    // Pre-order DFS numbering of the query tree (Figure 6's x1..xn).
    int root = -1;
    std::vector<std::vector<int>> children(k);
    for (int v = 0; v < k; ++v) {
      if (reduced_.parent_var[v] == -1) {
        if (root != -1) {
          return Status::InvalidArgument("reduced query is not connected");
        }
        root = v;
      } else {
        children[reduced_.parent_var[v]].push_back(v);
      }
    }
    TREEQ_CHECK(root != -1);
    dfs_order_.clear();
    std::vector<int> stack = {root};
    while (!stack.empty()) {
      int v = stack.back();
      stack.pop_back();
      dfs_order_.push_back(v);
      for (auto it = children[v].rbegin(); it != children[v].rend(); ++it) {
        stack.push_back(*it);
      }
    }

    partners_.assign(dfs_order_.size(), {});
    partners_[0] = reduced_.candidates[root].ToVector();
    theta_.assign(k, kNullNode);
    results_.clear();
    limit_ = limit;
    abort_ = Status::OK();
    EnumerateSatisfactions(0);
    TREEQ_RETURN_IF_ERROR(abort_);
    return std::move(results_);
  }

 private:
  // Figure 6's enumerate_satisfactions(i): binds x_i to each partner of
  // its parent's value in turn (partners_[i], filled by the caller; for
  // the root, every candidate). The first failed charge lands in abort_
  // and unwinds the recursion.
  void EnumerateSatisfactions(int i) {
    const int var = dfs_order_[i];
    const bool last = i == static_cast<int>(dfs_order_.size()) - 1;
    for (NodeId v : partners_[i]) {
      if (!abort_.ok() || results_.size() >= limit_) return;
      abort_ = exec_.Charge(1);
      if (!abort_.ok()) return;
      theta_[var] = v;
      if (last) {
        results_.push_back(theta_);
      } else {
        const int next = dfs_order_[i + 1];
        CollectPartners(next, theta_[reduced_.parent_var[next]],
                        &partners_[i + 1]);
        EnumerateSatisfactions(i + 1);
      }
    }
  }

  // *out = { w in candidates[var] : parent_axis[var](u, w) }, in increasing
  // node id (the order a universe scan would produce).
  void CollectPartners(int var, NodeId u, std::vector<NodeId>* out) const {
    const NodeSet& cand = reduced_.candidates[var];
    out->clear();
    auto keep = [&](NodeId w) {
      if (w != kNullNode && cand.Contains(w)) out->push_back(w);
    };
    // Candidates with id (= pre rank) in [begin, end).
    auto pre_range = [&](int begin, int end) {
      cand.ForEachMemberInRange(begin, end,
                                [&](NodeId w) { out->push_back(w); });
    };
    bool reversed = false;  // walked in decreasing id order
    switch (reduced_.parent_axis[var]) {
      case Axis::kSelf:
        keep(u);
        break;
      case Axis::kChild:
        for (NodeId c = tree_.first_child(u); c != kNullNode;
             c = tree_.next_sibling(c)) {
          keep(c);
        }
        break;
      case Axis::kParent:
        keep(tree_.parent(u));
        break;
      case Axis::kDescendant:
        pre_range(u + 1, orders_.SubtreeEndPre(u));
        break;
      case Axis::kDescendantOrSelf:
        pre_range(u, orders_.SubtreeEndPre(u));
        break;
      case Axis::kAncestorOrSelf:
        keep(u);
        [[fallthrough]];
      case Axis::kAncestor:
        for (NodeId p = tree_.parent(u); p != kNullNode; p = tree_.parent(p)) {
          keep(p);
        }
        reversed = true;
        break;
      case Axis::kNextSibling:
        keep(tree_.next_sibling(u));
        break;
      case Axis::kPrevSibling:
        keep(tree_.prev_sibling(u));
        break;
      case Axis::kFollowingSiblingOrSelf:
        keep(u);
        [[fallthrough]];
      case Axis::kFollowingSibling:
        for (NodeId s = tree_.next_sibling(u); s != kNullNode;
             s = tree_.next_sibling(s)) {
          keep(s);
        }
        break;
      case Axis::kPrecedingSiblingOrSelf:
        keep(u);
        [[fallthrough]];
      case Axis::kPrecedingSibling:
        for (NodeId s = tree_.prev_sibling(u); s != kNullNode;
             s = tree_.prev_sibling(s)) {
          keep(s);
        }
        reversed = true;
        break;
      case Axis::kFollowing:
        pre_range(orders_.SubtreeEndPre(u), tree_.num_nodes());
        break;
      case Axis::kPreceding:
        // Ids before u, minus u's ancestors.
        pre_range(0, u);
        std::erase_if(*out, [&](NodeId w) {
          return orders_.IsProperAncestor(w, u);
        });
        break;
      case Axis::kFirstChild:
        keep(tree_.first_child(u));
        break;
      case Axis::kFirstChildInv:
        if (tree_.prev_sibling(u) == kNullNode) keep(tree_.parent(u));
        break;
    }
    if (reversed) std::reverse(out->begin(), out->end());
  }

  const ConjunctiveQuery& query_;
  const Tree& tree_;
  const TreeOrders& orders_;
  const ReducedQuery& reduced_;
  const ExecContext& exec_;
  Status abort_;
  std::vector<int> dfs_order_;
  std::vector<std::vector<NodeId>> partners_;  // per DFS position
  std::vector<NodeId> theta_;
  std::vector<std::vector<NodeId>> results_;
  uint64_t limit_ = 0;
};

}  // namespace

Result<std::vector<std::vector<NodeId>>> EnumerateSolutions(
    const ConjunctiveQuery& query, const Document& doc,
    const ReducedQuery& reduced, uint64_t limit, const ExecContext& exec) {
  if (!reduced.satisfiable) {
    return std::vector<std::vector<NodeId>>{};
  }
  if (static_cast<int>(reduced.parent_var.size()) != query.num_vars()) {
    return Status::InvalidArgument("reduced query does not match the query");
  }
  SolutionEnumerator enumerator(query, doc.tree(), doc.orders(), reduced,
                                exec);
  return enumerator.Run(limit);
}

Result<TupleSet> EvaluateAcyclic(const ConjunctiveQuery& query,
                                 const Document& doc, const ExecContext& exec,
                                 AxisImageMemo* memo) {
  TREEQ_ASSIGN_OR_RETURN(
      ReducedQuery reduced,
      FullReducer(query, doc, /*root_var=*/-1, memo, exec));
  if (!reduced.satisfiable) return TupleSet{};
  TREEQ_ASSIGN_OR_RETURN(
      std::vector<std::vector<NodeId>> solutions,
      EnumerateSolutions(query, doc, reduced, UINT64_MAX, exec));
  TupleSet tuples;
  tuples.reserve(solutions.size());
  for (const std::vector<NodeId>& solution : solutions) {
    std::vector<NodeId> tuple;
    tuple.reserve(query.head_vars().size());
    for (int h : query.head_vars()) tuple.push_back(solution[h]);
    tuples.push_back(std::move(tuple));
  }
  CanonicalizeTuples(&tuples);
  return tuples;
}

}  // namespace cq
}  // namespace treeq
