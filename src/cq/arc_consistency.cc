#include "cq/arc_consistency.h"

#include <map>

#include "datalog/horn.h"
#include "obs/obs.h"

namespace treeq {
namespace cq {
namespace {

/// Materialized adjacency of one axis over the tree (both directions), the
/// ||A|| of Proposition 6.2. Only the Horn encoding builds it.
struct Adjacency {
  std::vector<std::vector<NodeId>> fwd;  // fwd[u] = {v : axis(u, v)}
  std::vector<std::vector<NodeId>> rev;  // rev[v] = {u : axis(u, v)}
};

Adjacency Materialize(const Tree& tree, const TreeOrders& orders, Axis axis) {
  const int n = tree.num_nodes();
  Adjacency adj;
  adj.fwd.resize(n);
  adj.rev.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (AxisHolds(tree, orders, axis, u, v)) {
        adj.fwd[u].push_back(v);
        adj.rev[v].push_back(u);
      }
    }
  }
  return adj;
}

/// The image fixpoint. Applying atom R(x, y) — Theta(x) &= R^-1(Theta(y)),
/// then Theta(y) &= R(Theta(x)) — leaves that atom supported both ways
/// (a y dropped by the second step had no partner in Theta(x), so it
/// supported nothing there). An atom therefore needs another application
/// only after a different atom shrank one of its variables, or, for a
/// self-loop R(x, x), after its own application shrank x. Atoms are swept
/// in query order; each sweep is one propagation round.
AcResult DirectAc(const ConjunctiveQuery& query, const Document& doc,
                  const PreValuation* initial, const ExecContext& exec) {
  TREEQ_OBS_SPAN("cq.ac.direct");
  const Tree& tree = doc.tree();
  const TreeOrders& orders = doc.orders();
  AcResult result;
  PreValuation& theta = result.theta;
  theta = LabelRestrictedCandidates(query, doc);
  if (initial != nullptr) {
    TREEQ_CHECK(static_cast<int>(initial->size()) == query.num_vars());
    for (int x = 0; x < query.num_vars(); ++x) {
      theta[x].IntersectWith((*initial)[x]);
    }
  }

  const std::vector<AxisAtom>& atoms = query.axis_atoms();
  std::vector<std::vector<int>> atoms_of(query.num_vars());
  for (int i = 0; i < static_cast<int>(atoms.size()); ++i) {
    atoms_of[atoms[i].var0].push_back(i);
    if (atoms[i].var1 != atoms[i].var0) atoms_of[atoms[i].var1].push_back(i);
  }
  std::vector<char> dirty(atoms.size(), 1);
  NodeSet image(tree.num_nodes());
  // theta[var] &= axis(theta[from]); marks the atoms that must re-run.
  auto narrow = [&](int i, int var, Axis axis, int from) -> Status {
    TREEQ_RETURN_IF_ERROR(
        exec.Charge(1 + static_cast<uint64_t>(theta[from].num_words())));
    AxisImage(tree, orders, axis, theta[from], &image);
    const int before = theta[var].size();
    theta[var].IntersectWith(image);
    if (theta[var].size() == before) return Status::OK();
    TREEQ_OBS_COUNT("cq.ac.domain_shrinks", before - theta[var].size());
    for (int j : atoms_of[var]) {
      if (j != i || atoms[i].var0 == atoms[i].var1) dirty[j] = 1;
    }
    return Status::OK();
  };
  for (bool again = !atoms.empty(); again;) {
    TREEQ_OBS_INC("cq.ac.propagation_rounds");
    again = false;
    for (int i = 0; i < static_cast<int>(atoms.size()); ++i) {
      if (!dirty[i]) continue;
      dirty[i] = 0;
      const AxisAtom& a = atoms[i];
      result.status = narrow(i, a.var0, InverseAxis(a.axis), a.var1);
      if (result.status.ok()) result.status = narrow(i, a.var1, a.axis, a.var0);
      if (!result.status.ok()) return result;
    }
    for (char d : dirty) again = again || d;
  }

  result.consistent = true;
  for (const NodeSet& set : theta) {
    if (set.empty()) result.consistent = false;
  }
  return result;
}

/// The paper's proof of Proposition 6.2: propositions ThetaBar(x, v) mean
/// "v is NOT in Theta(x)"; Horn clauses derive exactly the unsupported
/// values, and Minoux' algorithm solves the instance in linear time.
AcResult HornAc(const ConjunctiveQuery& query, const Tree& tree,
                const TreeOrders& orders, const PreValuation* initial) {
  TREEQ_OBS_SPAN("cq.ac.horn");
  const int n = tree.num_nodes();
  std::map<Axis, Adjacency> adjacency;
  for (Axis axis : query.AxesUsed()) {
    adjacency.emplace(axis, Materialize(tree, orders, axis));
  }

  horn::HornInstance instance;
  // Proposition ids: var * n + v.
  instance.AddPredicates(query.num_vars() * n);
  auto prop = [n](int var, NodeId v) { return var * n + v; };

  // { ThetaBar(x, v) <- .  |  P(x) in Q, not P(v) } — the caller-provided
  // restriction acts as extra singleton unary relations.
  for (const LabelAtom& a : query.label_atoms()) {
    for (NodeId v = 0; v < n; ++v) {
      if (!tree.HasLabel(v, a.label)) instance.AddFact(prop(a.var, v));
    }
  }
  if (initial != nullptr) {
    TREEQ_CHECK(static_cast<int>(initial->size()) == query.num_vars());
    for (int x = 0; x < query.num_vars(); ++x) {
      for (NodeId v = 0; v < n; ++v) {
        if (!(*initial)[x].Contains(v)) instance.AddFact(prop(x, v));
      }
    }
  }
  // { ThetaBar(x, v) <- AND { ThetaBar(y, w) | R(v, w) }  |  R(x, y) in Q }
  // and symmetrically for the second argument.
  for (const AxisAtom& a : query.axis_atoms()) {
    const Adjacency& adj = adjacency.at(a.axis);
    for (NodeId v = 0; v < n; ++v) {
      std::vector<horn::PredId> body;
      body.reserve(adj.fwd[v].size());
      for (NodeId w : adj.fwd[v]) body.push_back(prop(a.var1, w));
      instance.AddClause(prop(a.var0, v), std::move(body));
    }
    for (NodeId w = 0; w < n; ++w) {
      std::vector<horn::PredId> body;
      body.reserve(adj.rev[w].size());
      for (NodeId u : adj.rev[w]) body.push_back(prop(a.var0, u));
      instance.AddClause(prop(a.var1, w), std::move(body));
    }
  }

  TREEQ_OBS_COUNT("cq.ac.horn_clauses", instance.num_clauses());
  std::vector<char> excluded = instance.Solve();
  AcResult result;
  result.theta.assign(query.num_vars(), NodeSet(n));
  result.consistent = true;
  for (int x = 0; x < query.num_vars(); ++x) {
    for (NodeId v = 0; v < n; ++v) {
      if (!excluded[prop(x, v)]) result.theta[x].Insert(v);
    }
    if (result.theta[x].empty()) result.consistent = false;
  }
  return result;
}

}  // namespace

PreValuation LabelRestrictedCandidates(const ConjunctiveQuery& query,
                                       const Document& doc) {
  const int n = doc.num_nodes();
  PreValuation cand(query.num_vars(), NodeSet::All(n));
  for (const LabelAtom& a : query.label_atoms()) {
    const LabelId id = doc.tree().label_table().Lookup(a.label);
    if (id == kNullLabel) {
      cand[a.var] = NodeSet(n);  // no node carries an unknown label
    } else {
      cand[a.var].IntersectWith(doc.label_index().Set(id));
    }
  }
  return cand;
}

AcResult ComputeMaxArcConsistent(const ConjunctiveQuery& query,
                                 const Document& doc,
                                 AcImplementation implementation,
                                 const PreValuation* initial,
                                 const ExecContext& exec) {
  TREEQ_CHECK(query.Validate().ok());
  switch (implementation) {
    case AcImplementation::kDirect:
      return DirectAc(query, doc, initial, exec);
    case AcImplementation::kHornEncoding:
      return HornAc(query, doc.tree(), doc.orders(), initial);
  }
  TREEQ_CHECK(false);
  return {};
}

bool IsArcConsistent(const ConjunctiveQuery& query, const Document& doc,
                     const PreValuation& theta) {
  const Tree& tree = doc.tree();
  const TreeOrders& orders = doc.orders();
  const int n = tree.num_nodes();
  for (const NodeSet& set : theta) {
    if (set.empty()) return false;
  }
  for (const LabelAtom& a : query.label_atoms()) {
    for (NodeId v = 0; v < n; ++v) {
      if (theta[a.var].Contains(v) && !tree.HasLabel(v, a.label)) {
        return false;
      }
    }
  }
  for (const AxisAtom& a : query.axis_atoms()) {
    for (NodeId v = 0; v < n; ++v) {
      if (theta[a.var0].Contains(v)) {
        bool support = false;
        for (NodeId w = 0; w < n && !support; ++w) {
          support = theta[a.var1].Contains(w) &&
                    AxisHolds(tree, orders, a.axis, v, w);
        }
        if (!support) return false;
      }
      if (theta[a.var1].Contains(v)) {
        bool support = false;
        for (NodeId u = 0; u < n && !support; ++u) {
          support = theta[a.var0].Contains(u) &&
                    AxisHolds(tree, orders, a.axis, u, v);
        }
        if (!support) return false;
      }
    }
  }
  return true;
}

}  // namespace cq
}  // namespace treeq
