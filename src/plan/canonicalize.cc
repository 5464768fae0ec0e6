#include "plan/canonicalize.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cq/rewrite.h"
#include "obs/obs.h"

namespace treeq {
namespace plan {

namespace {

/// Rewrite-rule size caps: the Theorem 5.1 rewriting is exponential in the
/// variable count, so it only runs on small branches, and its output only
/// replaces the branch when the union stays small.
constexpr int kMaxRewriteVars = 8;
constexpr size_t kMaxRewriteBranches = 16;

/// Rule 1: R^-1(x, y) becomes R(y, x). (IsForwardAxis is tree/axes.h's.)
void FlipInverseAxes(QueryGraph* g) {
  for (IrEdge& e : g->edges) {
    if (!IsForwardAxis(e.axis)) {
      std::swap(e.from, e.to);
      e.axis = InverseAxis(e.axis);
    }
  }
}

/// Rebuilds `g` with var i renamed remap[i], or dropped when remap[i] < 0.
/// Vars renamed alike fold their labels and output column together. Edges
/// are re-pointed (callers guarantee no surviving edge references a
/// dropped var).
void Compact(QueryGraph* g, const std::vector<int>& remap, int new_count) {
  std::vector<IrVar> vars(static_cast<size_t>(new_count));
  for (size_t i = 0; i < g->vars.size(); ++i) {
    if (remap[i] < 0) continue;
    IrVar& dst = vars[static_cast<size_t>(remap[i])];
    for (std::string& label : g->vars[i].labels) {
      dst.labels.push_back(std::move(label));
    }
    if (g->vars[i].output_ord >= 0) dst.output_ord = g->vars[i].output_ord;
  }
  for (IrEdge& e : g->edges) {
    e.from = remap[static_cast<size_t>(e.from)];
    e.to = remap[static_cast<size_t>(e.to)];
  }
  g->vars = std::move(vars);
}

/// Union-find: the representative of `v`, halving the path on the way.
int FindRoot(std::vector<int>& parent, int v) {
  while (parent[v] != v) v = parent[v] = parent[parent[v]];
  return v;
}

/// Rule 2: drops Self self-loops and merges Self-edge endpoints. Two
/// distinct output columns joined by Self keep the edge (one variable
/// cannot carry two output positions).
void MergeSelfEdges(QueryGraph* g) {
  std::vector<int> parent(g->vars.size());
  std::iota(parent.begin(), parent.end(), 0);
  bool changed = false;
  std::vector<IrEdge> kept;
  for (const IrEdge& e : g->edges) {
    if (e.axis != Axis::kSelf) {
      kept.push_back(e);
      continue;
    }
    const int a = FindRoot(parent, e.from);
    const int b = FindRoot(parent, e.to);
    const IrVar& va = g->vars[a];
    const IrVar& vb = g->vars[b];
    if (a != b && va.is_output() && vb.is_output() &&
        va.output_ord != vb.output_ord) {
      kept.push_back(e);  // both columns must survive; keep the equality
      continue;
    }
    // A self-loop is always true and drops; otherwise merge into the
    // smaller index so an anchored root stays var 0.
    parent[std::max(a, b)] = std::min(a, b);
    changed = true;
  }
  if (!changed) return;
  g->edges = std::move(kept);
  std::vector<int> remap(g->vars.size());
  int next = 0;
  for (size_t i = 0; i < remap.size(); ++i) {
    const int rep = FindRoot(parent, static_cast<int>(i));
    remap[i] = rep == static_cast<int>(i) ? next++ : remap[rep];
  }
  Compact(g, remap, next);
}

/// Rule 3's composition table: axis(u, v) . axis(v, w) => axis(u, w) when
/// the middle variable is otherwise unconstrained.
std::optional<Axis> ComposeAxes(Axis a, Axis b) {
  const Axis ds = Axis::kDescendantOrSelf;
  const Axis d = Axis::kDescendant;
  const Axis c = Axis::kChild;
  const Axis ss = Axis::kFollowingSiblingOrSelf;
  const Axis sp = Axis::kFollowingSibling;
  const Axis sn = Axis::kNextSibling;
  if (a == ds && b == ds) return ds;
  if ((a == ds && (b == c || b == d)) || ((a == c || a == d) && b == ds)) {
    return d;
  }
  if (a == ss && b == ss) return ss;
  if ((a == ss && (b == sn || b == sp)) ||
      ((a == sn || a == sp) && b == ss)) {
    return sp;
  }
  return std::nullopt;
}

/// Rules 3-5 to fixpoint, from per-variable incidence lists built once: a
/// change re-examines only the variables it touched, so the pass is
/// linear in vars + edges. An invisible variable is unlabeled, not output
/// and not the anchored root.
///   3. an invisible variable with one edge in and one edge out that
///      ComposeAxes composes collapses into one edge;
///   4. an invisible variable whose one edge is Child* (either direction)
///      is vacuous and drops; so does an isolated one, unless it is the
///      last variable (a graph needs one variable to mean "true");
///   5. when 3-4 are done, the root anchor demotes if the root is
///      unlabeled, not output, and only the source of Child+/Child* edges
///      (3-4 never undo that), and 3-4 run again.
void SimplifyVars(QueryGraph* g) {
  const int n = static_cast<int>(g->vars.size());
  std::vector<std::vector<int>> incident(n);  // edge ids; a loop twice
  std::vector<int> degree(n, 0);
  std::vector<bool> edge_alive;
  auto attach = [&](const IrEdge& e) {
    for (int v : {e.from, e.to}) {
      incident[v].push_back(static_cast<int>(edge_alive.size()));
      ++degree[v];
    }
    edge_alive.push_back(true);
  };
  auto detach = [&](int e) {
    edge_alive[e] = false;
    --degree[g->edges[e].from];
    --degree[g->edges[e].to];
  };
  for (const IrEdge& e : g->edges) attach(e);
  std::vector<bool> var_alive(n, true), queued(n, true);
  int live_vars = n;
  auto drop = [&](int v) {
    var_alive[v] = false;
    --live_vars;
  };
  std::vector<int> work(n);
  std::iota(work.rbegin(), work.rend(), 0);  // pops in index order
  auto push = [&](int v) {
    if (!queued[v]) work.push_back(v);
    queued[v] = true;
  };
  auto invisible = [g](int v) {
    return g->vars[v].labels.empty() && !g->vars[v].is_output() &&
           !(g->anchored && v == 0);
  };
  auto blocks_demotion = [&](int e) {
    const IrEdge& edge = g->edges[e];
    return edge_alive[e] && (edge.to == 0 ||
                             (edge.axis != Axis::kDescendant &&
                              edge.axis != Axis::kDescendantOrSelf));
  };
  for (;;) {
    while (!work.empty()) {
      const int v = work.back();
      work.pop_back();
      queued[v] = false;
      if (!var_alive[v] || degree[v] > 2 || !invisible(v)) continue;
      std::erase_if(incident[v], [&](int e) { return !edge_alive[e]; });
      const std::vector<int>& edges = incident[v];
      if (degree[v] == 0) {
        if (live_vars > 1) drop(v);
      } else if (degree[v] == 1) {
        const IrEdge e = g->edges[edges[0]];
        if (e.axis != Axis::kDescendantOrSelf) continue;
        detach(edges[0]);
        drop(v);
        push(e.from == v ? e.to : e.from);
      } else {
        const bool in_first = g->edges[edges[0]].to == v;
        const int in = edges[in_first ? 0 : 1];
        const int out = edges[in_first ? 1 : 0];
        const IrEdge ein = g->edges[in], eout = g->edges[out];
        if (in == out || ein.to != v || eout.from != v) continue;
        if (ein.from == eout.to) continue;  // collapsing would make a loop
        const std::optional<Axis> composed = ComposeAxes(ein.axis, eout.axis);
        if (!composed.has_value()) continue;
        detach(in);
        detach(out);
        drop(v);
        g->edges.push_back(IrEdge{ein.from, eout.to, *composed});
        attach(g->edges.back());
        push(ein.from);
        push(eout.to);
      }
    }
    if (!g->anchored || !g->vars[0].labels.empty() || g->vars[0].is_output() ||
        std::any_of(incident[0].begin(), incident[0].end(), blocks_demotion)) {
      break;
    }
    g->anchored = false;
    push(0);
  }
  std::vector<IrEdge> edges;
  for (size_t e = 0; e < g->edges.size(); ++e) {
    if (edge_alive[e]) edges.push_back(g->edges[e]);
  }
  g->edges = std::move(edges);
  std::vector<int> remap(n, -1);
  int next = 0;
  for (int v = 0; v < n; ++v) {
    if (var_alive[v]) remap[v] = next++;
  }
  Compact(g, remap, next);
}

/// Rule 6: sorted, deduplicated labels and edges.
void SortAndDedupe(QueryGraph* g) {
  for (IrVar& var : g->vars) {
    std::sort(var.labels.begin(), var.labels.end());
    var.labels.erase(std::unique(var.labels.begin(), var.labels.end()),
                     var.labels.end());
  }
  std::sort(g->edges.begin(), g->edges.end());
  g->edges.erase(std::unique(g->edges.begin(), g->edges.end()),
                 g->edges.end());
}

/// Rules 1-6.
void NormalizeBranch(QueryGraph* g) {
  FlipInverseAxes(g);
  MergeSelfEdges(g);
  SimplifyVars(g);
  SortAndDedupe(g);
}

/// Rule 7: Theorem 5.1 normalization of small cyclic Boolean branches into
/// unions of acyclic branches. `branch` is replaced by zero or more graphs
/// appended to `out`; returns false (leaving `out` untouched) when the
/// rewrite does not apply or blows up — the caller keeps the original.
bool RewriteBooleanBranch(const QueryGraph& branch,
                          std::vector<QueryGraph>* out) {
  if (branch.anchored ||
      branch.vars.size() > static_cast<size_t>(kMaxRewriteVars) ||
      !branch.IsConnected()) {
    return false;
  }
  for (const IrEdge& e : branch.edges) {
    if (e.axis == Axis::kFirstChild) return false;  // no rewriting support
  }
  cq::ConjunctiveQuery query;
  if (!GraphToCq(branch, &query)) return false;
  if (query.IsTreeShaped()) return false;  // already normal
  Result<cq::RewriteOutput> rewritten =
      cq::RewriteToAcyclicUnionLazy(query);
  if (!rewritten.ok()) return false;
  if (rewritten->queries.empty() ||
      rewritten->queries.size() > kMaxRewriteBranches) {
    // Empty means unsatisfiable; keeping the original branch is correct
    // (it selects nothing) and avoids a constant-false special case.
    return false;
  }
  std::vector<QueryGraph> graphs;
  for (const cq::ConjunctiveQuery& q : rewritten->queries) {
    QueryGraph g;
    if (!CqToGraph(q, &g)) return false;
    NormalizeBranch(&g);
    graphs.push_back(std::move(g));
  }
  for (QueryGraph& g : graphs) out->push_back(std::move(g));
  TREEQ_OBS_INC("plan.canon.rewrites");
  return true;
}

/// An edge seen from one endpoint: the other endpoint `var`, the axis, and
/// whether the viewing endpoint is the edge's `from`.
struct Arc {
  int var = 0;
  int axis = 0;
  bool out = false;
};

/// Rule 8 for a forest: the Aho-Hopcroft-Ullman tree code. Returns the
/// canonical variable order (order[k] = old index of the var at position
/// k), or nullopt when `g` has a cycle, a parallel edge or a self-loop.
///
/// Each component is rooted at the anchor, else at its lowest output
/// column, else at its center. Two centers get a hub between them: a
/// virtual root that sees each center as the other center did. A
/// variable's code names (label set, output column, anchor flag, sorted
/// multiset of (child code, axis, direction)). Codes are named level by
/// level from the leaves, each level's tuples in sorted order, so equal
/// codes mean isomorphic subtrees and the names are canonical. Components
/// sort by code, anchor first; the order is the preorder, children in
/// code order.
std::optional<std::vector<int>> ForestOrder(const QueryGraph& g) {
  const int n = static_cast<int>(g.vars.size());
  std::vector<int> component(n);
  std::iota(component.begin(), component.end(), 0);
  std::vector<std::vector<Arc>> adj(n);
  for (const IrEdge& e : g.edges) {
    const int a = FindRoot(component, e.from);
    const int b = FindRoot(component, e.to);
    if (a == b) return std::nullopt;  // closes a cycle
    component[a] = b;
    const int axis = static_cast<int>(e.axis);
    adj[e.from].push_back(Arc{e.to, axis, true});
    adj[e.to].push_back(Arc{e.from, axis, false});
  }

  // Peel leaves layer by layer: a component's last layer is its center.
  std::vector<int> layer(n, 0), left(n), peel;
  for (int v = 0; v < n; ++v) {
    left[v] = static_cast<int>(adj[v].size());
    if (left[v] <= 1) peel.push_back(v);
  }
  for (size_t k = 0; k < peel.size(); ++k) {
    for (const Arc& arc : adj[peel[k]]) {
      if (--left[arc.var] == 1) {
        layer[arc.var] = layer[peel[k]] + 1;
        peel.push_back(arc.var);
      }
    }
  }
  auto is_anchor = [&g](int v) { return g.anchored && v == 0; };
  auto root_rank = [&](int v) {
    if (is_anchor(v)) return std::make_pair(0, 0);
    if (g.vars[v].is_output()) return std::make_pair(1, g.vars[v].output_ord);
    return std::make_pair(2, -layer[v]);
  };
  std::vector<int> best(n, -1), roots;
  for (int v = 0; v < n; ++v) {
    int& b = best[FindRoot(component, v)];
    if (b < 0 || root_rank(v) < root_rank(b)) b = v;
  }
  for (int r : best) {
    if (r < 0) continue;
    auto other = std::find_if(adj[r].begin(), adj[r].end(), [&](const Arc& a) {
      return layer[a.var] == layer[r];
    });
    if (root_rank(r).first < 2 || other == adj[r].end()) {
      roots.push_back(r);
      continue;
    }
    const int hub = static_cast<int>(adj.size());
    auto back = std::find_if(adj[other->var].begin(), adj[other->var].end(),
                             [r](const Arc& a) { return a.var == r; });
    std::vector<Arc> hub_arcs = {*back, *other};
    other->var = back->var = hub;
    adj.push_back(std::move(hub_arcs));
    roots.push_back(hub);
  }

  // Root the forest, then name codes by height, leaves first.
  const size_t total = adj.size();
  std::vector<int> parent(total, -1), height(total, 0), code(total, 0);
  std::vector<std::vector<Arc>> kids(total);
  std::vector<int> bfs = roots;
  for (size_t k = 0; k < bfs.size(); ++k) {
    const int v = bfs[k];
    for (const Arc& arc : adj[v]) {
      if (arc.var == parent[v]) continue;
      parent[arc.var] = v;
      kids[v].push_back(arc);
      bfs.push_back(arc.var);
    }
  }
  std::vector<std::vector<int>> levels;
  for (size_t k = bfs.size(); k-- > 0;) {
    const int v = bfs[k], p = parent[v];
    if (p >= 0) height[p] = std::max(height[p], height[v] + 1);
    levels.resize(std::max<size_t>(levels.size(), height[v] + 1));
    levels[height[v]].push_back(v);
  }
  std::vector<int> by_labels(n), label_rank(n);
  std::iota(by_labels.begin(), by_labels.end(), 0);
  auto labels = [&g](int v) -> const std::vector<std::string>& {
    return g.vars[v].labels;
  };
  std::sort(by_labels.begin(), by_labels.end(),
            [&](int a, int b) { return labels(a) < labels(b); });
  int next = 0;
  for (int k = 0; k < n; ++k) {
    if (k > 0 && labels(by_labels[k - 1]) != labels(by_labels[k])) ++next;
    label_rank[by_labels[k]] = next;
  }
  auto arc_key = [&code](const Arc& a) {
    return std::make_tuple(code[a.var], a.axis, a.out);
  };
  for (const std::vector<int>& level : levels) {
    std::vector<std::pair<std::vector<int>, int>> tuples;  // (code tuple, v)
    for (int v : level) {
      std::sort(kids[v].begin(), kids[v].end(),
                [&](const Arc& a, const Arc& b) {
                  return arc_key(a) < arc_key(b);
                });
      std::vector<int> tuple = {-1, -1, 0};  // a hub's
      if (v < n) tuple = {label_rank[v], g.vars[v].output_ord, is_anchor(v)};
      for (const Arc& arc : kids[v]) {
        tuple.insert(tuple.end(), {code[arc.var], arc.axis, arc.out});
      }
      tuples.emplace_back(std::move(tuple), v);
    }
    std::sort(tuples.begin(), tuples.end());
    for (size_t k = 0; k < tuples.size(); ++k) {
      if (k > 0 && tuples[k - 1].first != tuples[k].first) ++next;
      code[tuples[k].second] = next;
    }
    ++next;
  }

  std::sort(roots.begin(), roots.end(), [&](int a, int b) {
    return std::make_pair(!is_anchor(a), code[a]) <
           std::make_pair(!is_anchor(b), code[b]);
  });
  std::vector<int> order, stack;
  for (int r : roots) {
    stack.push_back(r);
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      if (v < n) order.push_back(v);
      for (auto kid = kids[v].rbegin(); kid != kids[v].rend(); ++kid) {
        stack.push_back(kid->var);
      }
    }
  }
  return order;
}

/// The canonical encoding of `g` in its own variable order, edges sorted.
std::string Encode(const QueryGraph& g) {
  std::string out = g.anchored ? "A;" : ";";
  for (const IrVar& var : g.vars) {
    out += "v";
    for (const std::string& label : var.labels) out += label + ",";
    out += "|o" + std::to_string(var.output_ord) + ";";
  }
  for (const IrEdge& e : g.edges) {
    out += "e" + std::to_string(e.from) + "," + std::to_string(e.to) + "," +
           std::to_string(static_cast<int>(e.axis)) + ";";
  }
  return out;
}

/// Rule 8: reorders a forest's variables by its tree code (any other
/// branch keeps its normalized order) and returns the encoding.
std::string CanonicalizeOrder(QueryGraph* g) {
  if (std::optional<std::vector<int>> order = ForestOrder(*g)) {
    std::vector<int> position(order->size());
    for (size_t k = 0; k < order->size(); ++k) {
      position[static_cast<size_t>((*order)[k])] = static_cast<int>(k);
    }
    Compact(g, position, static_cast<int>(position.size()));
    SortAndDedupe(g);
  }
  return Encode(*g);
}

struct Fnv128 {
  unsigned __int128 h = (static_cast<unsigned __int128>(
                             0x6c62272e07bb0142ULL)
                         << 64) |
                        0x62b821756295c58dULL;

  void Update(const std::string& bytes) {
    // FNV-1a-128: prime = 2^88 + 2^8 + 0x3b.
    const unsigned __int128 prime =
        (static_cast<unsigned __int128>(1) << 88) | 0x13BULL;
    for (char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= prime;
    }
  }

  CanonicalHash Digest() const {
    CanonicalHash out;
    out.hi = static_cast<uint64_t>(h >> 64);
    out.lo = static_cast<uint64_t>(h);
    return out;
  }
};

}  // namespace

CanonicalHash Canonicalize(LogicalPlan* plan) {
  TREEQ_OBS_INC("plan.canon.hashes");
  Fnv128 hash;
  hash.Update("arity=" + std::to_string(plan->arity) + "\n");
  if (!plan->structural()) {
    hash.Update(plan->opaque);
    return hash.Digest();
  }
  for (QueryGraph& branch : plan->branches) {
    NormalizeBranch(&branch);
  }
  if (plan->arity == 0) {
    std::vector<QueryGraph> normalized;
    for (QueryGraph& branch : plan->branches) {
      if (!RewriteBooleanBranch(branch, &normalized)) {
        normalized.push_back(std::move(branch));
      }
    }
    plan->branches = std::move(normalized);
  }
  // Equal encodings are equal graphs: one copy of each, in encoding order.
  std::map<std::string, QueryGraph> encoded;
  for (QueryGraph& branch : plan->branches) {
    std::string enc = CanonicalizeOrder(&branch);
    encoded.emplace(std::move(enc), std::move(branch));
  }
  plan->branches.clear();
  for (auto& [enc, branch] : encoded) {
    hash.Update(enc);
    hash.Update("\n");
    plan->branches.push_back(std::move(branch));
  }
  return hash.Digest();
}

}  // namespace plan
}  // namespace treeq
