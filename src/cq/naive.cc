#include "cq/naive.h"

#include <algorithm>
#include <set>

namespace treeq {
namespace cq {
namespace {

class Backtracker {
 public:
  Backtracker(const ConjunctiveQuery& query, const Document& doc,
              NaiveCqStats* stats, const ExecContext& exec)
      : query_(query), tree_(doc.tree()), orders_(doc.orders()),
        stats_(stats), exec_(exec) {}

  /// Runs the search. If `first_only`, stops after one satisfying
  /// assignment.
  Result<TupleSet> Run(bool first_only) {
    first_only_ = first_only;
    assignment_.assign(query_.num_vars(), kNullNode);
    results_.clear();
    found_ = false;
    TREEQ_RETURN_IF_ERROR(Assign(0));
    // Results were deduplicated on insertion (head projections of many
    // assignments coincide, and materializing the duplicates first can
    // exhaust memory); std::set iteration already yields sorted order.
    return TupleSet(results_.begin(), results_.end());
  }

 private:
  Status Assign(int var) {
    if (found_ && first_only_) return Status::OK();
    if (var == query_.num_vars()) {
      std::vector<NodeId> tuple;
      tuple.reserve(query_.head_vars().size());
      for (int h : query_.head_vars()) tuple.push_back(assignment_[h]);
      results_.insert(std::move(tuple));
      found_ = true;
      return Status::OK();
    }
    for (NodeId v = 0; v < tree_.num_nodes(); ++v) {
      if (stats_ != nullptr) ++stats_->assignments_tried;
      TREEQ_RETURN_IF_ERROR(exec_.Charge(1));
      assignment_[var] = v;
      bool ok = true;
      for (const LabelAtom& a : query_.label_atoms()) {
        if (a.var == var && !tree_.HasLabel(v, a.label)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (const AxisAtom& a : query_.axis_atoms()) {
          int last = std::max(a.var0, a.var1);
          if (last != var) continue;  // not yet fully bound, or checked before
          if (!AxisHolds(tree_, orders_, a.axis, assignment_[a.var0],
                         assignment_[a.var1])) {
            ok = false;
            break;
          }
        }
      }
      if (ok) TREEQ_RETURN_IF_ERROR(Assign(var + 1));
      if (found_ && first_only_) break;
    }
    assignment_[var] = kNullNode;
    return Status::OK();
  }

  const ConjunctiveQuery& query_;
  const Tree& tree_;
  const TreeOrders& orders_;
  NaiveCqStats* stats_;
  const ExecContext& exec_;
  bool first_only_ = false;
  bool found_ = false;
  std::vector<NodeId> assignment_;
  std::set<std::vector<NodeId>> results_;
};

}  // namespace

Result<TupleSet> NaiveEvaluateCq(const ConjunctiveQuery& query,
                                 const Document& doc, NaiveCqStats* stats,
                                 const ExecContext& exec) {
  TREEQ_RETURN_IF_ERROR(query.Validate());
  Backtracker search(query, doc, stats, exec);
  return search.Run(/*first_only=*/false);
}

Result<bool> NaiveSatisfiableCq(const ConjunctiveQuery& query,
                                const Document& doc, NaiveCqStats* stats,
                                const ExecContext& exec) {
  TREEQ_RETURN_IF_ERROR(query.Validate());
  Backtracker search(query, doc, stats, exec);
  TREEQ_ASSIGN_OR_RETURN(TupleSet results, search.Run(/*first_only=*/true));
  return !results.empty();
}

}  // namespace cq
}  // namespace treeq
