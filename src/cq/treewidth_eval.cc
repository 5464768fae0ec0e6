#include "cq/treewidth_eval.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

namespace treeq {
namespace cq {

namespace {

/// One connected component of the query, with component-local variable
/// indices (0-based) mapped back to the original query's variables.
struct Component {
  std::vector<int> vars;               // component var -> query var
  std::vector<AxisAtom> axis_atoms;    // over component indices
  std::vector<LabelAtom> label_atoms;  // over component indices
};

std::vector<Component> SplitComponents(const ConjunctiveQuery& query) {
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
  std::vector<Component> components(num_components);
  std::vector<int> local(k, -1);
  for (int v = 0; v < k; ++v) {
    local[v] = static_cast<int>(components[comp[v]].vars.size());
    components[comp[v]].vars.push_back(v);
  }
  for (const AxisAtom& a : query.axis_atoms()) {
    components[comp[a.var0]].axis_atoms.push_back(
        AxisAtom{a.axis, local[a.var0], local[a.var1]});
  }
  for (const LabelAtom& a : query.label_atoms()) {
    components[comp[a.var]].label_atoms.push_back(
        LabelAtom{a.label, local[a.var]});
  }
  return components;
}

/// The reduced bag relations of one component, plus the decomposition tree.
struct ComponentEval {
  bool satisfiable = false;
  TreeDecomposition decomposition;
  // Per bag: tuples over decomposition.bags[b] (component var order).
  std::vector<std::vector<std::vector<NodeId>>> relations;
};

/// Projection of `tuple` (aligned with `bag`) onto `vars` (a subset).
std::vector<NodeId> Project(const std::vector<int>& bag,
                            const std::vector<NodeId>& tuple,
                            const std::vector<int>& vars) {
  std::vector<NodeId> out;
  out.reserve(vars.size());
  for (int v : vars) {
    auto it = std::find(bag.begin(), bag.end(), v);
    out.push_back(tuple[it - bag.begin()]);
  }
  return out;
}

Result<ComponentEval> EvaluateComponent(const Component& component,
                                        const Tree& tree,
                                        const TreeOrders& orders,
                                        TreewidthEvalStats* stats) {
  const int k = static_cast<int>(component.vars.size());
  const int n = tree.num_nodes();
  ComponentEval eval;

  // 1. Decompose the component's query graph.
  Graph graph(k);
  for (const AxisAtom& a : component.axis_atoms) {
    if (a.var0 != a.var1) graph.AddEdge(a.var0, a.var1);
  }
  eval.decomposition = GreedyDecompose(graph);
  if (stats != nullptr) {
    stats->width = std::max(stats->width, eval.decomposition.Width());
  }
  const int num_bags = static_cast<int>(eval.decomposition.bags.size());

  // Label atoms restrict per-variable domains up front.
  std::vector<std::vector<NodeId>> domain(k);
  for (int v = 0; v < k; ++v) {
    std::vector<std::string> labels;
    for (const LabelAtom& a : component.label_atoms) {
      if (a.var == v) labels.push_back(a.label);
    }
    for (NodeId node = 0; node < n; ++node) {
      bool ok = true;
      for (const std::string& l : labels) ok = ok && tree.HasLabel(node, l);
      if (ok) domain[v].push_back(node);
    }
  }

  // Assign each binary atom to one covering bag; self-loop atoms too.
  std::vector<std::vector<const AxisAtom*>> atoms_of_bag(num_bags);
  for (const AxisAtom& a : component.axis_atoms) {
    bool placed = false;
    for (int b = 0; b < num_bags && !placed; ++b) {
      const std::vector<int>& bag = eval.decomposition.bags[b];
      bool has0 = std::find(bag.begin(), bag.end(), a.var0) != bag.end();
      bool has1 = std::find(bag.begin(), bag.end(), a.var1) != bag.end();
      if (has0 && has1) {
        atoms_of_bag[b].push_back(&a);
        placed = true;
      }
    }
    if (!placed) {
      return Status::Internal("decomposition does not cover an atom");
    }
  }

  // 2. Materialize bag relations: |A|^{bag size} candidates filtered by the
  // bag's atoms (Theorem 4.1's dominant term).
  eval.relations.resize(num_bags);
  for (int b = 0; b < num_bags; ++b) {
    const std::vector<int>& bag = eval.decomposition.bags[b];
    std::vector<NodeId> tuple(bag.size(), kNullNode);
    // Iterative odometer over the restricted domains.
    std::vector<size_t> idx(bag.size(), 0);
    bool empty_domain = false;
    for (int v : bag) empty_domain = empty_domain || domain[v].empty();
    if (!empty_domain) {
      for (;;) {
        for (size_t i = 0; i < bag.size(); ++i) {
          tuple[i] = domain[bag[i]][idx[i]];
        }
        if (stats != nullptr) ++stats->candidate_checks;
        bool ok = true;
        for (const AxisAtom* a : atoms_of_bag[b]) {
          NodeId u = tuple[std::find(bag.begin(), bag.end(), a->var0) -
                           bag.begin()];
          NodeId v = tuple[std::find(bag.begin(), bag.end(), a->var1) -
                           bag.begin()];
          if (!AxisHolds(tree, orders, a->axis, u, v)) {
            ok = false;
            break;
          }
        }
        if (ok) eval.relations[b].push_back(tuple);
        // Advance the odometer.
        size_t pos = 0;
        while (pos < bag.size() && ++idx[pos] == domain[bag[pos]].size()) {
          idx[pos] = 0;
          ++pos;
        }
        if (pos == bag.size()) break;
      }
    }
    if (stats != nullptr) {
      stats->bag_tuples += eval.relations[b].size();
    }
  }

  // 3. Yannakakis over the decomposition tree: children before parents.
  // Bag parents come from GreedyDecompose; order bags so children precede
  // parents (the parent always has a later-eliminated pivot, but be safe
  // and topo-sort).
  std::vector<int> order;
  {
    std::vector<std::vector<int>> children(num_bags);
    std::vector<int> roots;
    for (int b = 0; b < num_bags; ++b) {
      int p = eval.decomposition.parent[b];
      if (p == -1) {
        roots.push_back(b);
      } else {
        children[p].push_back(b);
      }
    }
    for (int root : roots) {
      std::vector<int> stack = {root};
      std::vector<int> preorder;
      while (!stack.empty()) {
        int b = stack.back();
        stack.pop_back();
        preorder.push_back(b);
        for (int c : children[b]) stack.push_back(c);
      }
      order.insert(order.end(), preorder.rbegin(), preorder.rend());
    }
  }
  auto semijoin = [&](int from, int to) {
    const std::vector<int>& from_bag = eval.decomposition.bags[from];
    const std::vector<int>& to_bag = eval.decomposition.bags[to];
    std::vector<int> shared;
    for (int v : from_bag) {
      if (std::find(to_bag.begin(), to_bag.end(), v) != to_bag.end()) {
        shared.push_back(v);
      }
    }
    std::set<std::vector<NodeId>> keys;
    for (const auto& t : eval.relations[from]) {
      keys.insert(Project(from_bag, t, shared));
    }
    auto& rel = eval.relations[to];
    rel.erase(std::remove_if(rel.begin(), rel.end(),
                             [&](const std::vector<NodeId>& t) {
                               return !keys.count(Project(to_bag, t, shared));
                             }),
              rel.end());
  };
  // Bottom-up: children reduce parents.
  for (int b : order) {
    int p = eval.decomposition.parent[b];
    if (p != -1) semijoin(b, p);
  }
  // Top-down: parents reduce children.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    int p = eval.decomposition.parent[*it];
    if (p != -1) semijoin(p, *it);
  }
  eval.satisfiable = true;
  for (const auto& rel : eval.relations) {
    if (rel.empty()) eval.satisfiable = false;
  }
  return eval;
}

/// Enumerates all solutions of a reduced component by joining bag
/// relations along the decomposition tree; appends full per-component
/// assignments (indexed by component var).
void JoinComponent(const ComponentEval& eval, size_t order_index,
                   const std::vector<int>& order,
                   std::vector<NodeId>* assignment,
                   std::vector<std::vector<NodeId>>* out) {
  if (order_index == order.size()) {
    out->push_back(*assignment);
    return;
  }
  int b = order[order_index];
  const std::vector<int>& bag = eval.decomposition.bags[b];
  for (const auto& tuple : eval.relations[b]) {
    bool compatible = true;
    std::vector<int> touched;
    for (size_t i = 0; i < bag.size(); ++i) {
      NodeId assigned = (*assignment)[bag[i]];
      if (assigned == kNullNode) {
        (*assignment)[bag[i]] = tuple[i];
        touched.push_back(bag[i]);
      } else if (assigned != tuple[i]) {
        compatible = false;
        break;
      }
    }
    if (compatible) {
      JoinComponent(eval, order_index + 1, order, assignment, out);
    }
    for (int v : touched) (*assignment)[v] = kNullNode;
  }
}

}  // namespace

Result<bool> EvaluateBooleanTreewidth(const ConjunctiveQuery& query,
                                      const Document& doc,
                                      TreewidthEvalStats* stats) {
  TREEQ_RETURN_IF_ERROR(query.Validate());
  for (const Component& component : SplitComponents(query)) {
    TREEQ_ASSIGN_OR_RETURN(
        ComponentEval eval,
        EvaluateComponent(component, doc.tree(), doc.orders(), stats));
    if (!eval.satisfiable) return false;
  }
  return true;
}

Result<TupleSet> EvaluateTreewidth(const ConjunctiveQuery& query,
                                   const Document& doc,
                                   TreewidthEvalStats* stats) {
  TREEQ_RETURN_IF_ERROR(query.Validate());
  std::vector<Component> components = SplitComponents(query);

  // Per component: the set of head-var sub-tuples it contributes.
  struct ComponentHeads {
    std::vector<size_t> head_positions;  // positions in query.head_vars()
    std::vector<std::vector<NodeId>> tuples;
  };
  std::vector<ComponentHeads> parts;
  for (const Component& component : components) {
    TREEQ_ASSIGN_OR_RETURN(
        ComponentEval eval,
        EvaluateComponent(component, doc.tree(), doc.orders(), stats));
    if (!eval.satisfiable) return TupleSet{};
    ComponentHeads part;
    std::map<int, int> local_of;  // query var -> component var
    for (size_t i = 0; i < component.vars.size(); ++i) {
      local_of[component.vars[i]] = static_cast<int>(i);
    }
    for (size_t h = 0; h < query.head_vars().size(); ++h) {
      if (local_of.count(query.head_vars()[h])) {
        part.head_positions.push_back(h);
      }
    }
    // Join the bags and project onto this component's head vars.
    std::vector<int> order(eval.decomposition.bags.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    std::vector<NodeId> assignment(component.vars.size(), kNullNode);
    std::vector<std::vector<NodeId>> solutions;
    JoinComponent(eval, 0, order, &assignment, &solutions);
    std::set<std::vector<NodeId>> dedup;
    for (const auto& sol : solutions) {
      std::vector<NodeId> head;
      for (size_t h : part.head_positions) {
        head.push_back(sol[local_of[query.head_vars()[h]]]);
      }
      dedup.insert(std::move(head));
    }
    part.tuples.assign(dedup.begin(), dedup.end());
    parts.push_back(std::move(part));
  }

  // Cross product across components, scattered into head positions.
  TupleSet result;
  std::vector<NodeId> tuple(query.head_vars().size(), kNullNode);
  std::vector<size_t> pick(parts.size(), 0);
  for (;;) {
    for (size_t c = 0; c < parts.size(); ++c) {
      const auto& part = parts[c];
      const auto& sub = part.tuples[pick[c]];
      for (size_t i = 0; i < part.head_positions.size(); ++i) {
        tuple[part.head_positions[i]] = sub[i];
      }
    }
    result.push_back(tuple);
    size_t pos = 0;
    while (pos < parts.size() && ++pick[pos] == parts[pos].tuples.size()) {
      pick[pos] = 0;
      ++pos;
    }
    if (pos == parts.size()) break;
  }
  CanonicalizeTuples(&result);
  return result;
}

}  // namespace cq
}  // namespace treeq
