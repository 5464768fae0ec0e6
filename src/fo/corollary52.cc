#include "fo/corollary52.h"

#include <map>
#include <string>

#include "cq/rewrite.h"
#include "cq/yannakakis.h"

namespace treeq {
namespace fo {
namespace {

/// A partially built conjunct: atoms over scoped variable ids.
struct Fragment {
  std::vector<std::pair<std::string, int>> labels;      // (label, var id)
  std::vector<std::tuple<Axis, int, int>> axis_atoms;   // incl. Self for =
};

/// DNF builder with capture-avoiding renaming: every quantifier binding
/// introduces a fresh id; free variables get stable ids registered up
/// front.
class DnfBuilder {
 public:
  Result<std::vector<Fragment>> Build(const Formula& f,
                                      std::map<std::string, int>* scope) {
    switch (f.kind) {
      case Formula::Kind::kLabel: {
        TREEQ_ASSIGN_OR_RETURN(int v, Resolve(f.var0, scope));
        Fragment frag;
        frag.labels.emplace_back(f.label, v);
        return std::vector<Fragment>{std::move(frag)};
      }
      case Formula::Kind::kAxis: {
        TREEQ_ASSIGN_OR_RETURN(int v0, Resolve(f.var0, scope));
        TREEQ_ASSIGN_OR_RETURN(int v1, Resolve(f.var1, scope));
        Fragment frag;
        frag.axis_atoms.emplace_back(f.axis, v0, v1);
        return std::vector<Fragment>{std::move(frag)};
      }
      case Formula::Kind::kEquals: {
        TREEQ_ASSIGN_OR_RETURN(int v0, Resolve(f.var0, scope));
        TREEQ_ASSIGN_OR_RETURN(int v1, Resolve(f.var1, scope));
        Fragment frag;
        frag.axis_atoms.emplace_back(Axis::kSelf, v0, v1);
        return std::vector<Fragment>{std::move(frag)};
      }
      case Formula::Kind::kAnd: {
        TREEQ_ASSIGN_OR_RETURN(std::vector<Fragment> left,
                               Build(*f.left, scope));
        TREEQ_ASSIGN_OR_RETURN(std::vector<Fragment> right,
                               Build(*f.right, scope));
        std::vector<Fragment> out;
        for (const Fragment& l : left) {
          for (const Fragment& r : right) {
            Fragment merged = l;
            merged.labels.insert(merged.labels.end(), r.labels.begin(),
                                 r.labels.end());
            merged.axis_atoms.insert(merged.axis_atoms.end(),
                                     r.axis_atoms.begin(),
                                     r.axis_atoms.end());
            out.push_back(std::move(merged));
          }
        }
        return out;
      }
      case Formula::Kind::kOr: {
        TREEQ_ASSIGN_OR_RETURN(std::vector<Fragment> out,
                               Build(*f.left, scope));
        TREEQ_ASSIGN_OR_RETURN(std::vector<Fragment> right,
                               Build(*f.right, scope));
        out.insert(out.end(), std::make_move_iterator(right.begin()),
                   std::make_move_iterator(right.end()));
        return out;
      }
      case Formula::Kind::kExists: {
        int fresh = next_id_++;
        var_names_.push_back(f.var0);
        auto saved = scope->find(f.var0);
        int saved_id = saved == scope->end() ? -1 : saved->second;
        (*scope)[f.var0] = fresh;
        Result<std::vector<Fragment>> body = Build(*f.left, scope);
        if (saved_id == -1) {
          scope->erase(f.var0);
        } else {
          (*scope)[f.var0] = saved_id;
        }
        return body;
      }
      case Formula::Kind::kNot:
      case Formula::Kind::kForAll:
        return Status::InvalidArgument(
            "PositiveFoToCqUnion requires a positive formula");
    }
    return Status::Internal("unreachable");
  }

  int RegisterFree(const std::string& name) {
    int id = next_id_++;
    var_names_.push_back(name);
    return id;
  }

  const std::string& NameOf(int id) const { return var_names_[id]; }
  int num_ids() const { return next_id_; }

 private:
  Result<int> Resolve(const std::string& name,
                      std::map<std::string, int>* scope) {
    auto it = scope->find(name);
    if (it == scope->end()) {
      return Status::Internal("unscoped variable " + name);
    }
    return it->second;
  }

  int next_id_ = 0;
  std::vector<std::string> var_names_;
};

}  // namespace

Result<std::vector<cq::ConjunctiveQuery>> PositiveFoToCqUnion(
    const Formula& formula) {
  if (!IsPositive(formula)) {
    return Status::InvalidArgument(
        "PositiveFoToCqUnion requires a positive formula");
  }
  DnfBuilder builder;
  std::map<std::string, int> scope;
  std::vector<std::string> free_vars = FreeVariables(formula);
  std::vector<int> free_ids;
  for (const std::string& v : free_vars) {
    int id = builder.RegisterFree(v);
    scope[v] = id;
    free_ids.push_back(id);
  }
  TREEQ_ASSIGN_OR_RETURN(std::vector<Fragment> fragments,
                         builder.Build(formula, &scope));

  std::vector<cq::ConjunctiveQuery> out;
  for (const Fragment& frag : fragments) {
    cq::ConjunctiveQuery query;
    std::map<int, int> var_of;
    auto map_var = [&](int id) {
      auto it = var_of.find(id);
      if (it != var_of.end()) return it->second;
      int v = query.AddVar(builder.NameOf(id) + "#" + std::to_string(id));
      var_of.emplace(id, v);
      return v;
    };
    // Head variables first so projections stay aligned even if a free
    // variable appears in no atom of this disjunct (it is then
    // unconstrained — any node).
    for (int id : free_ids) map_var(id);
    for (const auto& [label, id] : frag.labels) {
      query.AddLabelAtom(label, map_var(id));
    }
    for (const auto& [axis, a, b] : frag.axis_atoms) {
      int va = map_var(a);
      int vb = map_var(b);
      query.AddAxisAtom(axis, va, vb);
    }
    for (int id : free_ids) query.AddHeadVar(var_of.at(id));
    out.push_back(std::move(query));
  }
  return out;
}

Result<bool> EvaluateSentencePositive(const Formula& formula,
                                      const Document& doc,
                                      Corollary52Stats* stats,
                                      const ExecContext& exec) {
  if (!FreeVariables(formula).empty()) {
    return Status::InvalidArgument("formula has free variables");
  }
  TREEQ_ASSIGN_OR_RETURN(std::vector<cq::ConjunctiveQuery> disjuncts,
                         PositiveFoToCqUnion(formula));
  if (stats != nullptr) {
    stats->cq_disjuncts = static_cast<int>(disjuncts.size());
  }
  for (const cq::ConjunctiveQuery& cq_disjunct : disjuncts) {
    TREEQ_ASSIGN_OR_RETURN(cq::RewriteOutput rewritten,
                           cq::RewriteToAcyclicUnionLazy(cq_disjunct));
    if (stats != nullptr) {
      stats->acyclic_disjuncts +=
          static_cast<int>(rewritten.queries.size());
    }
    for (const cq::ConjunctiveQuery& acyclic : rewritten.queries) {
      TREEQ_ASSIGN_OR_RETURN(
          bool satisfiable,
          cq::EvaluateBooleanAcyclicForest(acyclic, doc, exec));
      if (satisfiable) return true;
    }
  }
  return false;
}

}  // namespace fo
}  // namespace treeq
