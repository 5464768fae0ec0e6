#include "xpath/naive_evaluator.h"

#include "obs/obs.h"

namespace treeq {
namespace xpath {

namespace {

class NaiveEvaluator {
 public:
  NaiveEvaluator(const Document& doc, NaiveStats* stats,
                 const ExecContext& exec)
      : tree_(doc.tree()), orders_(doc.orders()), stats_(stats),
        exec_(exec) {}

  Result<NodeSet> EvalPath(const PathExpr& path, NodeId context) {
    TREEQ_RETURN_IF_ERROR(Charge());
    const int n = tree_.num_nodes();
    switch (path.kind) {
      case PathExpr::Kind::kStep: {
        // (P1) + (P2): enumerate the axis image of the single context node,
        // re-evaluating every qualifier per candidate.
        NodeSet out(n);
        for (NodeId m = 0; m < n; ++m) {
          if (!AxisHolds(tree_, orders_, path.axis, context, m)) continue;
          bool all = true;
          for (const auto& q : path.qualifiers) {
            TREEQ_ASSIGN_OR_RETURN(bool holds, EvalQualifier(*q, m));
            if (!holds) {
              all = false;
              break;
            }
          }
          if (all) out.Insert(m);
        }
        return out;
      }
      case PathExpr::Kind::kSeq: {
        // (P3): recurse into the tail once per intermediate node.
        TREEQ_ASSIGN_OR_RETURN(NodeSet mid, EvalPath(*path.left, context));
        NodeSet out(n);
        for (NodeId w : mid.ToVector()) {
          TREEQ_ASSIGN_OR_RETURN(NodeSet sub, EvalPath(*path.right, w));
          out.UnionWith(sub);
        }
        return out;
      }
      case PathExpr::Kind::kUnion: {
        // (P4)
        TREEQ_ASSIGN_OR_RETURN(NodeSet out, EvalPath(*path.left, context));
        TREEQ_ASSIGN_OR_RETURN(NodeSet rhs, EvalPath(*path.right, context));
        out.UnionWith(rhs);
        return out;
      }
    }
    TREEQ_CHECK(false);
    return NodeSet(n);
  }

  Result<bool> EvalQualifier(const Qualifier& q, NodeId context) {
    TREEQ_RETURN_IF_ERROR(Charge());
    switch (q.kind) {
      case Qualifier::Kind::kPath: {
        // (Q2)
        TREEQ_ASSIGN_OR_RETURN(NodeSet set, EvalPath(*q.path, context));
        return !set.empty();
      }
      case Qualifier::Kind::kLabel:  // (Q1)
        return tree_.HasLabel(context, q.label);
      case Qualifier::Kind::kAnd: {  // (Q3)
        TREEQ_ASSIGN_OR_RETURN(bool l, EvalQualifier(*q.left, context));
        if (!l) return false;
        return EvalQualifier(*q.right, context);
      }
      case Qualifier::Kind::kOr: {  // (Q4)
        TREEQ_ASSIGN_OR_RETURN(bool l, EvalQualifier(*q.left, context));
        if (l) return true;
        return EvalQualifier(*q.right, context);
      }
      case Qualifier::Kind::kNot: {  // (Q5)
        TREEQ_ASSIGN_OR_RETURN(bool l, EvalQualifier(*q.left, context));
        return !l;
      }
    }
    TREEQ_CHECK(false);
    return false;
  }

 private:
  Status Charge() {
    TREEQ_OBS_INC("xpath.naive.rule_applications");
    if (stats_ != nullptr) ++stats_->rule_applications;
    return exec_.Charge(1);
  }

  const Tree& tree_;
  const TreeOrders& orders_;
  NaiveStats* stats_;
  const ExecContext& exec_;
};

}  // namespace

Result<NodeSet> NaiveEvalPath(const Document& doc, const PathExpr& path,
                              NodeId context, NaiveStats* stats,
                              const ExecContext& exec) {
  NaiveEvaluator eval(doc, stats, exec);
  return eval.EvalPath(path, context);
}

}  // namespace xpath
}  // namespace treeq
