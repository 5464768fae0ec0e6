#include "fo/evaluator.h"

#include <map>
#include <string>

namespace treeq {
namespace fo {
namespace {

class NaiveChecker {
 public:
  NaiveChecker(const Document& doc, const ExecContext& exec)
      : tree_(doc.tree()), orders_(doc.orders()), exec_(exec) {}

  Result<bool> Eval(const Formula& f, std::map<std::string, NodeId>* env) {
    TREEQ_RETURN_IF_ERROR(exec_.Charge(1));
    switch (f.kind) {
      case Formula::Kind::kLabel:
        return tree_.HasLabel(Lookup(f.var0, env), f.label);
      case Formula::Kind::kAxis:
        return AxisHolds(tree_, orders_, f.axis, Lookup(f.var0, env),
                         Lookup(f.var1, env));
      case Formula::Kind::kEquals:
        return Lookup(f.var0, env) == Lookup(f.var1, env);
      case Formula::Kind::kAnd: {
        TREEQ_ASSIGN_OR_RETURN(bool l, Eval(*f.left, env));
        if (!l) return false;
        return Eval(*f.right, env);
      }
      case Formula::Kind::kOr: {
        TREEQ_ASSIGN_OR_RETURN(bool l, Eval(*f.left, env));
        if (l) return true;
        return Eval(*f.right, env);
      }
      case Formula::Kind::kNot: {
        TREEQ_ASSIGN_OR_RETURN(bool l, Eval(*f.left, env));
        return !l;
      }
      case Formula::Kind::kExists:
      case Formula::Kind::kForAll: {
        const bool forall = f.kind == Formula::Kind::kForAll;
        auto saved = env->find(f.var0);
        NodeId saved_value = saved == env->end() ? kNullNode : saved->second;
        bool had = saved != env->end();
        for (NodeId v = 0; v < tree_.num_nodes(); ++v) {
          (*env)[f.var0] = v;
          TREEQ_ASSIGN_OR_RETURN(bool inner, Eval(*f.left, env));
          if (inner != forall) {
            // exists: found a witness; forall: found a counterexample.
            RestoreVar(f.var0, had, saved_value, env);
            return !forall;
          }
        }
        RestoreVar(f.var0, had, saved_value, env);
        return forall;
      }
    }
    return Status::Internal("unreachable");
  }

 private:
  NodeId Lookup(const std::string& var,
                std::map<std::string, NodeId>* env) const {
    auto it = env->find(var);
    TREEQ_CHECK(it != env->end());
    return it->second;
  }

  static void RestoreVar(const std::string& var, bool had, NodeId value,
                         std::map<std::string, NodeId>* env) {
    if (had) {
      (*env)[var] = value;
    } else {
      env->erase(var);
    }
  }

  const Tree& tree_;
  const TreeOrders& orders_;
  const ExecContext& exec_;
};

}  // namespace

Result<bool> EvaluateSentenceNaive(const Formula& formula,
                                   const Document& doc,
                                   const ExecContext& exec) {
  if (!FreeVariables(formula).empty()) {
    return Status::InvalidArgument("formula has free variables");
  }
  NaiveChecker checker(doc, exec);
  std::map<std::string, NodeId> env;
  return checker.Eval(formula, &env);
}

Result<cq::TupleSet> EvaluateFoNaive(const Formula& formula,
                                     const Document& doc,
                                     const ExecContext& exec) {
  std::vector<std::string> free_vars = FreeVariables(formula);
  NaiveChecker checker(doc, exec);
  cq::TupleSet result;
  std::vector<NodeId> tuple(free_vars.size(), 0);
  std::map<std::string, NodeId> env;
  // Odometer over assignments of the free variables.
  for (;;) {
    for (size_t i = 0; i < free_vars.size(); ++i) {
      env[free_vars[i]] = tuple[i];
    }
    TREEQ_ASSIGN_OR_RETURN(bool holds, checker.Eval(formula, &env));
    if (holds) result.push_back(tuple);
    size_t pos = 0;
    while (pos < tuple.size() && ++tuple[pos] == doc.num_nodes()) {
      tuple[pos] = 0;
      ++pos;
    }
    if (pos == tuple.size()) break;
    if (free_vars.empty()) break;
  }
  cq::CanonicalizeTuples(&result);
  return result;
}

}  // namespace fo
}  // namespace treeq
