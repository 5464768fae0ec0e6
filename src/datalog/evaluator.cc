#include "datalog/evaluator.h"

#include <map>
#include <string>
#include <vector>

#include "datalog/grounder.h"
#include "datalog/horn.h"
#include "datalog/tmnf.h"
#include "obs/obs.h"

namespace treeq {
namespace datalog {

Result<NodeSet> EvaluateDatalog(const Program& program, const Document& doc,
                                EvalStats* stats, const ExecContext& exec) {
  TREEQ_OBS_SPAN("datalog.eval");
  const Tree& tree = doc.tree();
  TREEQ_ASSIGN_OR_RETURN(Program tmnf, ToTmnf(program));
  // Grounding materializes O(|P| * |Dom|) clauses; charge the estimate up
  // front so a doomed request never allocates the ground program at all.
  TREEQ_RETURN_IF_ERROR(exec.Charge(
      1 + tmnf.rules().size() * static_cast<uint64_t>(tree.num_nodes())));
  TREEQ_ASSIGN_OR_RETURN(GroundProgram ground, GroundTmnf(tmnf, tree));
  if (stats != nullptr) {
    stats->tmnf_rules = static_cast<int>(tmnf.rules().size());
    stats->ground_clauses = ground.horn.num_clauses();
    stats->ground_literals = ground.horn.SizeInLiterals();
  }
  TREEQ_OBS_COUNT("datalog.ground_clauses", ground.horn.num_clauses());
  TREEQ_OBS_COUNT("datalog.ground_literals", ground.horn.SizeInLiterals());
  TREEQ_ASSIGN_OR_RETURN(std::vector<char> truth, ground.horn.Solve(exec));
  NodeSet result(tree.num_nodes());
  horn::PredId base = ground.pred_base.at(program.query_predicate());
  for (NodeId v = 0; v < tree.num_nodes(); ++v) {
    if (truth[base + v]) result.Insert(v);
  }
  return result;
}

Result<std::map<std::string, NodeSet>> EvaluateDatalogAllPredicates(
    const Program& program, const Document& doc) {
  const Tree& tree = doc.tree();
  TREEQ_ASSIGN_OR_RETURN(Program tmnf, ToTmnf(program));
  TREEQ_ASSIGN_OR_RETURN(GroundProgram ground, GroundTmnf(tmnf, tree));
  std::vector<char> truth = ground.horn.Solve();
  std::map<std::string, NodeSet> out;
  for (const std::string& pred : program.IntensionalPredicates()) {
    NodeSet set(tree.num_nodes());
    horn::PredId base = ground.pred_base.at(pred);
    for (NodeId v = 0; v < tree.num_nodes(); ++v) {
      if (truth[base + v]) set.Insert(v);
    }
    out.emplace(pred, std::move(set));
  }
  return out;
}

namespace {

/// Tries all assignments of the rule's variables to nodes, checking atoms as
/// soon as their variables are bound; adds derived heads to `derived`.
class NaiveRuleMatcher {
 public:
  NaiveRuleMatcher(const Rule& rule, const Tree& tree, const TreeOrders& orders,
                   const std::map<std::string, NodeSet>& relations,
                   const ExecContext& exec)
      : rule_(rule), tree_(tree), orders_(orders), relations_(relations),
        exec_(exec) {}

  Status Match(NodeSet* head_result) {
    assignment_.assign(rule_.num_vars(), kNullNode);
    head_result_ = head_result;
    abort_ = Status::OK();
    Assign(0);
    return abort_;
  }

 private:
  bool AtomHolds(const Atom& atom) const {
    NodeId a = assignment_[atom.var0];
    switch (atom.kind) {
      case Atom::Kind::kAxis:
        return AxisHolds(tree_, orders_, atom.axis, a,
                         assignment_[atom.var1]);
      case Atom::Kind::kIntensional:
        return relations_.at(atom.predicate).Contains(a);
      default:
        return EvalUnaryExtensional(atom, tree_, a);
    }
  }

  bool AtomReady(const Atom& atom, int bound_up_to) const {
    if (atom.var0 > bound_up_to) return false;
    if (atom.kind == Atom::Kind::kAxis && atom.var1 > bound_up_to) {
      return false;
    }
    return true;
  }

  void Assign(int var) {
    if (!abort_.ok()) return;
    if (var == rule_.num_vars()) {
      head_result_->Insert(assignment_[rule_.head_var]);
      return;
    }
    for (NodeId v = 0; v < tree_.num_nodes(); ++v) {
      abort_ = exec_.Charge(1);
      if (!abort_.ok()) return;
      assignment_[var] = v;
      bool ok = true;
      for (const Atom& atom : rule_.body) {
        // Check each atom exactly once: when its last variable is bound.
        if (AtomReady(atom, var) && !AtomReady(atom, var - 1) &&
            !AtomHolds(atom)) {
          ok = false;
          break;
        }
      }
      if (ok) Assign(var + 1);
    }
    assignment_[var] = kNullNode;
  }

  const Rule& rule_;
  const Tree& tree_;
  const TreeOrders& orders_;
  const std::map<std::string, NodeSet>& relations_;
  const ExecContext& exec_;
  Status abort_;
  std::vector<NodeId> assignment_;
  NodeSet* head_result_ = nullptr;
};

}  // namespace

Result<NodeSet> EvaluateDatalogNaive(const Program& program,
                                     const Document& doc,
                                     const ExecContext& exec) {
  const Tree& tree = doc.tree();
  const TreeOrders& orders = doc.orders();
  TREEQ_RETURN_IF_ERROR(program.Validate());
  std::map<std::string, NodeSet> relations;
  for (const std::string& pred : program.IntensionalPredicates()) {
    relations.emplace(pred, NodeSet(tree.num_nodes()));
  }
  bool changed = true;
  while (changed) {
    TREEQ_OBS_INC("datalog.fixpoint_iterations");
    changed = false;
    for (const Rule& rule : program.rules()) {
      TREEQ_OBS_INC("datalog.rule_firings");
      NodeSet derived(tree.num_nodes());
      NaiveRuleMatcher matcher(rule, tree, orders, relations, exec);
      TREEQ_RETURN_IF_ERROR(matcher.Match(&derived));
      NodeSet& head = relations.at(rule.head_pred);
      for (NodeId v : derived.ToVector()) {
        if (!head.Contains(v)) {
          head.Insert(v);
          TREEQ_OBS_INC("datalog.facts_derived");
          changed = true;
        }
      }
    }
  }
  return relations.at(program.query_predicate());
}

}  // namespace datalog
}  // namespace treeq
