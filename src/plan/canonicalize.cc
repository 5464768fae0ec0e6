#include "plan/canonicalize.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
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
/// Tie-break permutation budget for the canonical variable order.
constexpr uint64_t kMaxTiePermutations = 64;

/// Rule 1: R^-1(x, y) becomes R(y, x). (IsForwardAxis is tree/axes.h's.)
void FlipInverseAxes(QueryGraph* g) {
  for (IrEdge& e : g->edges) {
    if (!IsForwardAxis(e.axis)) {
      std::swap(e.from, e.to);
      e.axis = InverseAxis(e.axis);
    }
  }
}

/// Rebuilds `g` keeping only vars with remap[i] >= 0; edges are re-pointed
/// (callers guarantee no surviving edge references a dropped var).
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

/// Rule 2: drops Self self-loops and merges Self-edge endpoints. Two
/// distinct output columns joined by Self keep the edge (one variable
/// cannot carry two output positions). Returns true if anything changed.
bool MergeSelfEdges(QueryGraph* g) {
  std::vector<int> parent(g->vars.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  auto find = [&parent](int v) {
    while (parent[static_cast<size_t>(v)] != v) {
      v = parent[static_cast<size_t>(v)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(v)])];
    }
    return v;
  };
  bool changed = false;
  std::vector<IrEdge> kept;
  for (const IrEdge& e : g->edges) {
    if (e.axis != Axis::kSelf) {
      kept.push_back(e);
      continue;
    }
    int a = find(e.from);
    int b = find(e.to);
    if (a == b) {
      changed = true;  // self-loop: always true, drop
      continue;
    }
    const IrVar& va = g->vars[static_cast<size_t>(a)];
    const IrVar& vb = g->vars[static_cast<size_t>(b)];
    if (va.is_output() && vb.is_output() &&
        va.output_ord != vb.output_ord) {
      kept.push_back(e);  // both columns must survive; keep the equality
      continue;
    }
    // Merge into the smaller index so an anchored root stays var 0.
    parent[static_cast<size_t>(std::max(a, b))] = std::min(a, b);
    changed = true;
  }
  if (!changed) return false;
  g->edges = std::move(kept);
  std::vector<int> remap(g->vars.size(), -1);
  int next = 0;
  for (size_t i = 0; i < g->vars.size(); ++i) {
    if (find(static_cast<int>(i)) == static_cast<int>(i)) {
      remap[i] = next++;
    }
  }
  for (size_t i = 0; i < g->vars.size(); ++i) {
    if (remap[i] < 0) {
      // Fold this var into its class representative before compaction.
      const int rep = find(static_cast<int>(i));
      IrVar& dst = g->vars[static_cast<size_t>(rep)];
      for (std::string& label : g->vars[i].labels) {
        dst.labels.push_back(std::move(label));
      }
      if (g->vars[i].output_ord >= 0) {
        dst.output_ord = g->vars[i].output_ord;
      }
      g->vars[i].labels.clear();
      g->vars[i].output_ord = -1;
    }
  }
  for (IrEdge& e : g->edges) {
    e.from = find(e.from);
    e.to = find(e.to);
  }
  Compact(g, remap, next);
  return true;
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

bool RemovableVar(const QueryGraph& g, size_t i) {
  return g.vars[i].labels.empty() && !g.vars[i].is_output() &&
         !(g.anchored && i == 0);
}

/// Rule 3: collapses an invisible degree-2 variable between two composable
/// edges. Returns true if a collapse happened.
bool CollapseInvisibleMiddle(QueryGraph* g) {
  for (size_t v = 0; v < g->vars.size(); ++v) {
    if (!RemovableVar(*g, v)) continue;
    int in = -1, out = -1, degree = 0;
    for (size_t e = 0; e < g->edges.size(); ++e) {
      if (g->edges[e].from == static_cast<int>(v)) {
        ++degree;
        out = static_cast<int>(e);
      }
      if (g->edges[e].to == static_cast<int>(v)) {
        ++degree;
        in = static_cast<int>(e);
      }
    }
    if (degree != 2 || in < 0 || out < 0 || in == out) continue;
    const IrEdge& ein = g->edges[static_cast<size_t>(in)];
    const IrEdge& eout = g->edges[static_cast<size_t>(out)];
    if (ein.from == eout.to) continue;  // collapsing would make a loop
    std::optional<Axis> composed = ComposeAxes(ein.axis, eout.axis);
    if (!composed.has_value()) continue;
    IrEdge merged{ein.from, eout.to, *composed};
    std::vector<IrEdge> edges;
    for (size_t e = 0; e < g->edges.size(); ++e) {
      if (static_cast<int>(e) != in && static_cast<int>(e) != out) {
        edges.push_back(g->edges[e]);
      }
    }
    edges.push_back(merged);
    g->edges = std::move(edges);
    std::vector<int> remap(g->vars.size(), -1);
    int next = 0;
    for (size_t i = 0; i < g->vars.size(); ++i) {
      if (i != v) remap[i] = next++;
    }
    Compact(g, remap, next);
    return true;
  }
  return false;
}

/// Rule 4: drops vacuous variables — unlabeled, non-output, non-root, with
/// at most one incident edge, that edge being Child* in either direction
/// (exists v . Child*(v, x) and exists v . Child*(x, v) both always hold).
/// Isolated unconstrained variables (exists v . true) drop too, except the
/// last variable of a branch (a graph needs one variable to mean "true").
bool PruneVacuousVars(QueryGraph* g) {
  for (size_t v = 0; v < g->vars.size(); ++v) {
    if (!RemovableVar(*g, v)) continue;
    int incident = -1, degree = 0;
    for (size_t e = 0; e < g->edges.size(); ++e) {
      if (g->edges[e].from == static_cast<int>(v) ||
          g->edges[e].to == static_cast<int>(v)) {
        ++degree;
        incident = static_cast<int>(e);
      }
    }
    if (degree > 1) continue;
    if (degree == 1) {
      const IrEdge& e = g->edges[static_cast<size_t>(incident)];
      if (e.axis != Axis::kDescendantOrSelf) continue;
      if (e.from == e.to) continue;
      g->edges.erase(g->edges.begin() + incident);
    } else if (g->vars.size() == 1) {
      continue;
    }
    std::vector<int> remap(g->vars.size(), -1);
    int next = 0;
    for (size_t i = 0; i < g->vars.size(); ++i) {
      if (i != v) remap[i] = next++;
    }
    Compact(g, remap, next);
    return true;
  }
  return false;
}

/// Rule 5: demotes the root anchor when the root variable is unlabeled,
/// not output, and only the *source* of Child+/Child* edges: every node is
/// Child* of the root, and a Child+ of the root is exactly a node with
/// some proper ancestor — both expressible with an existential variable.
bool DemoteAnchor(QueryGraph* g) {
  if (!g->anchored) return false;
  const IrVar& root = g->vars[0];
  if (!root.labels.empty() || root.is_output()) return false;
  for (const IrEdge& e : g->edges) {
    if (e.to == 0) return false;
    if (e.from == 0 && e.axis != Axis::kDescendant &&
        e.axis != Axis::kDescendantOrSelf) {
      return false;
    }
  }
  g->anchored = false;
  return true;
}

/// Rule 6: sorted, deduplicated labels and edges.
void SortAndDedupe(QueryGraph* g) {
  for (IrVar& var : g->vars) {
    std::sort(var.labels.begin(), var.labels.end());
    var.labels.erase(std::unique(var.labels.begin(), var.labels.end()),
                     var.labels.end());
  }
  auto edge_key = [](const IrEdge& e) {
    return std::tuple<int, int, int>(e.from, e.to, static_cast<int>(e.axis));
  };
  std::sort(g->edges.begin(), g->edges.end(),
            [&edge_key](const IrEdge& a, const IrEdge& b) {
              return edge_key(a) < edge_key(b);
            });
  g->edges.erase(std::unique(g->edges.begin(), g->edges.end(),
                             [&edge_key](const IrEdge& a, const IrEdge& b) {
                               return edge_key(a) == edge_key(b);
                             }),
                 g->edges.end());
}

/// Rules 1-6 to fixpoint.
void NormalizeBranch(QueryGraph* g) {
  FlipInverseAxes(g);
  bool changed = true;
  // Each rule strictly shrinks vars+edges or fires at most once, so the
  // loop terminates well before this bound; the bound is a safety net.
  int fuel = static_cast<int>(g->vars.size() + g->edges.size()) * 4 + 8;
  while (changed && fuel-- > 0) {
    changed = false;
    if (MergeSelfEdges(g)) changed = true;
    if (CollapseInvisibleMiddle(g)) changed = true;
    if (PruneVacuousVars(g)) changed = true;
    if (DemoteAnchor(g)) changed = true;
  }
  SortAndDedupe(g);
}

bool RewriteSupportedAxis(Axis axis) {
  return axis != Axis::kFirstChild && axis != Axis::kFirstChildInv;
}

/// Rule 7: Theorem 5.1 normalization of small cyclic Boolean branches into
/// unions of acyclic branches. `branch` is replaced by zero or more graphs
/// appended to `out`; returns false (leaving `out` untouched) when the
/// rewrite does not apply or blows up — the caller keeps the original.
bool RewriteBooleanBranch(const QueryGraph& branch,
                          std::vector<QueryGraph>* out) {
  if (branch.anchored || !branch.IsConnected()) return false;
  if (branch.vars.size() > static_cast<size_t>(kMaxRewriteVars)) {
    return false;
  }
  for (const IrEdge& e : branch.edges) {
    if (!RewriteSupportedAxis(e.axis)) return false;
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

/// Rule 8: canonical variable order by Weisfeiler-Leman color refinement.
/// Returns per-var final color ranks (root — whose initial color is
/// distinct — always lands in rank 0's singleton class when anchored).
std::vector<int> RefineColors(const QueryGraph& g) {
  const size_t n = g.vars.size();
  std::vector<std::string> colors(n);
  for (size_t i = 0; i < n; ++i) {
    std::string c = (g.anchored && i == 0) ? "0" : "1";
    c += "|o" + std::to_string(g.vars[i].output_ord) + "|";
    for (const std::string& label : g.vars[i].labels) c += label + ",";
    colors[i] = std::move(c);
  }
  // Each var's incident edges, built once: a round then costs O(V + E).
  std::vector<std::vector<const IrEdge*>> incident(n);
  for (const IrEdge& e : g.edges) {
    incident[static_cast<size_t>(e.from)].push_back(&e);
    if (e.to != e.from) incident[static_cast<size_t>(e.to)].push_back(&e);
  }
  size_t distinct = 0;
  for (size_t round = 0; round <= n; ++round) {
    std::vector<std::string> next(n);
    for (size_t i = 0; i < n; ++i) {
      std::vector<std::string> sigs;
      for (const IrEdge* e : incident[i]) {
        if (e->from == static_cast<int>(i)) {
          sigs.push_back("+" + std::to_string(static_cast<int>(e->axis)) +
                         ":" + colors[static_cast<size_t>(e->to)]);
        }
        if (e->to == static_cast<int>(i)) {
          sigs.push_back("-" + std::to_string(static_cast<int>(e->axis)) +
                         ":" + colors[static_cast<size_t>(e->from)]);
        }
      }
      std::sort(sigs.begin(), sigs.end());
      next[i] = colors[i] + "#";
      for (const std::string& s : sigs) next[i] += s + ";";
    }
    // Compress to ranks; rank order follows lexicographic color order, so
    // refinement keeps the previous round's relative order (each new color
    // is prefixed by the old one).
    std::map<std::string, int> ranks;
    for (const std::string& c : next) ranks.emplace(c, 0);
    int r = 0;
    for (auto& [color, rank] : ranks) rank = r++;
    const size_t now = ranks.size();
    for (size_t i = 0; i < n; ++i) {
      colors[i] = std::to_string(ranks[next[i]]);
      // Re-expand to a prefix-stable form for the next round's comparison.
      colors[i] = std::string(8 - std::min<size_t>(8, colors[i].size()),
                              '0') +
                  colors[i];
    }
    if (now == distinct) break;  // stabilized
    distinct = now;
  }
  std::vector<int> result(n);
  std::map<std::string, int> final_ranks;
  for (const std::string& c : colors) final_ranks.emplace(c, 0);
  int r = 0;
  for (auto& [color, rank] : final_ranks) rank = r++;
  for (size_t i = 0; i < n; ++i) result[i] = final_ranks[colors[i]];
  return result;
}

/// Canonical encoding of `g` under the variable order `order` (order[k] =
/// old index of the var at canonical position k).
std::string EncodeWithOrder(const QueryGraph& g,
                            const std::vector<int>& order) {
  std::vector<int> position(order.size());
  for (size_t k = 0; k < order.size(); ++k) {
    position[static_cast<size_t>(order[k])] = static_cast<int>(k);
  }
  std::string out = g.anchored ? "A;" : ";";
  for (size_t k = 0; k < order.size(); ++k) {
    const IrVar& var = g.vars[static_cast<size_t>(order[k])];
    out += "v";
    for (const std::string& label : var.labels) out += label + ",";
    out += "|o" + std::to_string(var.output_ord) + ";";
  }
  std::vector<std::tuple<int, int, int>> edges;
  for (const IrEdge& e : g.edges) {
    edges.emplace_back(position[static_cast<size_t>(e.from)],
                       position[static_cast<size_t>(e.to)],
                       static_cast<int>(e.axis));
  }
  std::sort(edges.begin(), edges.end());
  for (const auto& [from, to, axis] : edges) {
    out += "e" + std::to_string(from) + "," + std::to_string(to) + "," +
           std::to_string(axis) + ";";
  }
  return out;
}

/// Reorders `g`'s variables canonically and returns the encoding.
std::string CanonicalizeOrder(QueryGraph* g) {
  const size_t n = g->vars.size();
  std::vector<int> ranks = RefineColors(*g);
  std::vector<int> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&ranks](int a, int b) {
    return ranks[static_cast<size_t>(a)] < ranks[static_cast<size_t>(b)];
  });
  // Tie groups: runs of equal rank. Enumerate their permutations (bounded)
  // and keep the lexicographically smallest encoding.
  std::vector<std::pair<size_t, size_t>> groups;  // [begin, end) positions
  uint64_t total = 1;
  for (size_t b = 0; b < n;) {
    size_t e = b + 1;
    while (e < n && ranks[static_cast<size_t>(order[e])] ==
                        ranks[static_cast<size_t>(order[b])]) {
      ++e;
    }
    if (e - b > 1) {
      groups.emplace_back(b, e);
      for (size_t k = 2; k <= e - b && total <= kMaxTiePermutations; ++k) {
        total *= k;
      }
    }
    b = e;
  }
  std::string best = EncodeWithOrder(*g, order);
  if (!groups.empty() && total <= kMaxTiePermutations) {
    std::vector<int> candidate = order;
    // Nested next_permutation over the tie groups (odometer style).
    std::vector<std::vector<int>> perms;
    for (const auto& [b, e] : groups) {
      perms.emplace_back(candidate.begin() + static_cast<long>(b),
                         candidate.begin() + static_cast<long>(e));
      std::sort(perms.back().begin(), perms.back().end());
    }
    bool more = true;
    while (more) {
      for (size_t gi = 0; gi < groups.size(); ++gi) {
        std::copy(perms[gi].begin(), perms[gi].end(),
                  candidate.begin() + static_cast<long>(groups[gi].first));
      }
      std::string enc = EncodeWithOrder(*g, candidate);
      if (enc < best) {
        best = std::move(enc);
        order = candidate;
      }
      more = false;
      for (size_t gi = 0; gi < groups.size(); ++gi) {
        if (std::next_permutation(perms[gi].begin(), perms[gi].end())) {
          more = true;
          break;
        }
        // This group wrapped to its first permutation; carry to the next.
      }
    }
  }
  // Apply the chosen order to the graph itself so downstream consumers
  // (rendering, engine-form synthesis) see the canonical form.
  std::vector<int> position(n);
  for (size_t k = 0; k < n; ++k) {
    position[static_cast<size_t>(order[k])] = static_cast<int>(k);
  }
  std::vector<IrVar> vars(n);
  for (size_t k = 0; k < n; ++k) {
    vars[k] = std::move(g->vars[static_cast<size_t>(order[k])]);
  }
  g->vars = std::move(vars);
  for (IrEdge& e : g->edges) {
    e.from = position[static_cast<size_t>(e.from)];
    e.to = position[static_cast<size_t>(e.to)];
  }
  SortAndDedupe(g);
  return best;
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
  std::vector<std::pair<std::string, QueryGraph>> encoded;
  for (QueryGraph& branch : plan->branches) {
    std::string enc = CanonicalizeOrder(&branch);
    encoded.emplace_back(std::move(enc), std::move(branch));
  }
  std::sort(encoded.begin(), encoded.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  encoded.erase(std::unique(encoded.begin(), encoded.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                encoded.end());
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
