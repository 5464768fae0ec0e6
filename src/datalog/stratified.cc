#include "datalog/stratified.h"

#include <memory>
#include <set>

#include "datalog/evaluator.h"

namespace treeq {
namespace datalog {

Result<std::map<std::string, int>> Stratify(const Program& program) {
  TREEQ_RETURN_IF_ERROR(program.Validate(/*allow_negation=*/true));
  std::vector<std::string> preds = program.IntensionalPredicates();
  std::map<std::string, int> stratum;
  for (const std::string& p : preds) stratum[p] = 0;
  const int n = static_cast<int>(preds.size());

  // Bellman-Ford-style constraint propagation:
  //   head >= body-pred          (positive dependency)
  //   head >= body-pred + 1      (negative dependency)
  // A stratum exceeding the predicate count means a negative cycle.
  for (int round = 0; round <= n; ++round) {
    bool changed = false;
    for (const Rule& rule : program.rules()) {
      int& head = stratum[rule.head_pred];
      for (const Atom& atom : rule.body) {
        if (atom.kind != Atom::Kind::kIntensional) continue;
        int required = stratum[atom.predicate] + (atom.negated ? 1 : 0);
        if (head < required) {
          head = required;
          changed = true;
        }
      }
    }
    if (!changed) return stratum;
  }
  return Status::InvalidArgument(
      "program is not stratifiable: negation occurs on a recursive cycle");
}

Tree AugmentLabels(const Tree& tree,
                   const std::map<std::string, NodeSet>& annotations) {
  // Rebuild the identical structure with the extra labels. Node ids are
  // preserved: TreeBuilder assigns ids in creation order, the original ids
  // are parent-before-child, and sibling ids increase left to right, so
  // creating nodes in id order appends every child in its original
  // position.
  TreeBuilder builder;
  for (NodeId v = 0; v < tree.num_nodes(); ++v) {
    std::vector<std::string> labels;
    for (LabelId l : tree.labels(v)) {
      labels.push_back(tree.label_table().Name(l));
    }
    for (const auto& [label, set] : annotations) {
      if (set.Contains(v)) labels.push_back(label);
    }
    NodeId id = builder.AddChild(
        v == tree.root() ? kNullNode : tree.parent(v), labels);
    TREEQ_CHECK(id == v);
  }
  Result<Tree> rebuilt = builder.Finish();
  TREEQ_CHECK(rebuilt.ok());
  return std::move(rebuilt).value();
}

Result<NodeSet> EvaluateStratified(const Program& program,
                                   const Document& doc,
                                   StratifiedStats* stats) {
  TREEQ_ASSIGN_OR_RETURN(auto strata, Stratify(program));
  int max_stratum = 0;
  for (const auto& [pred, s] : strata) max_stratum = std::max(max_stratum, s);
  if (stats != nullptr) stats->strata = max_stratum + 1;

  // Values of already-evaluated predicates.
  std::map<std::string, NodeSet> computed;
  // The working document: the input, then a re-labeled copy after each
  // stratum.
  const Document* current = &doc;
  std::unique_ptr<Document> augmented;

  for (int level = 0; level <= max_stratum; ++level) {
    // Build the stratum program: rules whose head lives at this level, with
    // lower-level predicate references replaced by label atoms.
    Program sub;
    std::set<std::string> heads;
    for (const Rule& rule : program.rules()) {
      if (strata.at(rule.head_pred) != level) continue;
      heads.insert(rule.head_pred);
      Rule copy = rule;
      for (Atom& atom : copy.body) {
        if (atom.kind != Atom::Kind::kIntensional) continue;
        int dep = strata.at(atom.predicate);
        if (dep == level) {
          TREEQ_CHECK(!atom.negated);  // stratification guarantees this
          continue;
        }
        std::string label = (atom.negated ? "__strat_not_" : "__strat_") +
                            atom.predicate;
        atom = Atom::MakeLabel(label, atom.var0);
      }
      sub.rules().push_back(std::move(copy));
    }
    if (heads.empty()) continue;
    sub.set_query_predicate(*heads.begin());
    TREEQ_ASSIGN_OR_RETURN(auto values,
                           EvaluateDatalogAllPredicates(sub, *current));
    // Record and annotate for the next strata.
    std::map<std::string, NodeSet> annotations;
    for (const std::string& head : heads) {
      NodeSet set = values.at(head);
      NodeSet complement = set;
      complement.Complement();
      annotations.emplace("__strat_" + head, set);
      annotations.emplace("__strat_not_" + head, std::move(complement));
      computed.emplace(head, std::move(set));
    }
    augmented = std::make_unique<Document>(
        AugmentLabels(current->tree(), annotations));
    current = augmented.get();
  }

  auto it = computed.find(program.query_predicate());
  if (it == computed.end()) {
    return Status::Internal("query predicate was never evaluated");
  }
  return it->second;
}

}  // namespace datalog
}  // namespace treeq
