#include "xpath/evaluator.h"

#include "obs/obs.h"
#include "tree/label_index.h"

namespace treeq {
namespace xpath {

namespace {

/// Evaluation context: the document's tree, orders and label index, and
/// the ExecContext every subexpression operation charges. The first failed
/// charge lands in `abort` and all further recursion short-circuits
/// (returning empty sets that the entry point discards in favor of the
/// abort status).
struct EvalCtx {
  const Tree& tree;
  const TreeOrders& orders;
  const LabelIndex& labels;
  const ExecContext& exec;
  Status& abort;
  // Cross-query axis-image memo (tree/axes.h), consulted per step.
  AxisImageMemo* memo = nullptr;
};

/// True once the evaluation has tripped a limit.
bool Aborted(const EvalCtx& ctx) { return !ctx.abort.ok(); }

/// Charges `units` against the context's budget; returns false (recording
/// the abort status) when a limit trips.
bool ChargeOp(const EvalCtx& ctx, uint64_t units) {
  Status s = ctx.exec.Charge(units);
  if (s.ok()) return true;
  ctx.abort = std::move(s);
  return false;
}

/// One axis-image step with the charge schedule 1 + |from| (a memo hit
/// charges its lookup instead). Returns false after recording the abort
/// status when a budget trips.
bool StepImage(const EvalCtx& ctx, Axis axis, const NodeSet& from,
               NodeSet* to) {
  if (ctx.memo != nullptr && ctx.memo->Lookup(axis, from, to)) {
    // A memo hit charges the lookup actually paid — one op plus the words
    // fingerprinted — not the O(|from|) kernel work it saved. Budgets
    // meter real cost, so a hit must not burn budget for skipped work.
    return ChargeOp(ctx, 1 + static_cast<uint64_t>(from.num_words()));
  }
  if (!ChargeOp(ctx, 1 + static_cast<uint64_t>(from.size()))) return false;
  AxisImage(ctx.tree, ctx.orders, axis, from, to);
  if (ctx.memo != nullptr) ctx.memo->Store(axis, from, *to);
  return true;
}

NodeSet EvalPathCtx(const EvalCtx& ctx, const PathExpr& path,
                    const NodeSet& context);
NodeSet EvalQualifierCtx(const EvalCtx& ctx, const Qualifier& q);
NodeSet EvalPathExistsCtx(const EvalCtx& ctx, const PathExpr& path,
                          const NodeSet& target);

/// Intersection of the step's qualifier sets with `set`, in place.
void ApplyQualifiers(const EvalCtx& ctx, const PathExpr& step, NodeSet* set) {
  for (const auto& q : step.qualifiers) {
    if (Aborted(ctx)) return;
    TREEQ_OBS_INC("xpath.qualifier_ops");
    NodeSet b = EvalQualifierCtx(ctx, *q);
    set->IntersectWith(b);
  }
}

NodeSet EvalPathCtx(const EvalCtx& ctx, const PathExpr& path,
                    const NodeSet& context) {
  const int n = ctx.tree.num_nodes();
  if (Aborted(ctx)) return NodeSet(n);
  switch (path.kind) {
    case PathExpr::Kind::kStep: {
      NodeSet out(n);
      TREEQ_OBS_INC("xpath.axis_ops");
      TREEQ_OBS_HISTOGRAM("xpath.context_size", context.size());
      if (!StepImage(ctx, path.axis, context, &out)) return out;
      ApplyQualifiers(ctx, path, &out);
      TREEQ_OBS_HISTOGRAM("xpath.result_size", out.size());
      return out;
    }
    case PathExpr::Kind::kSeq: {
      NodeSet mid = EvalPathCtx(ctx, *path.left, context);
      return EvalPathCtx(ctx, *path.right, mid);
    }
    case PathExpr::Kind::kUnion: {
      NodeSet out = EvalPathCtx(ctx, *path.left, context);
      NodeSet rhs = EvalPathCtx(ctx, *path.right, context);
      out.UnionWith(rhs);
      return out;
    }
  }
  TREEQ_CHECK(false);
  return NodeSet(n);
}

NodeSet EvalQualifierCtx(const EvalCtx& ctx, const Qualifier& q) {
  const int n = ctx.tree.num_nodes();
  if (Aborted(ctx) || !ChargeOp(ctx, 1 + static_cast<uint64_t>(n) / 64)) {
    return NodeSet(n);
  }
  switch (q.kind) {
    case Qualifier::Kind::kPath:
      return EvalPathExistsCtx(ctx, *q.path, NodeSet::All(n));
    case Qualifier::Kind::kLabel: {
      LabelId label = ctx.tree.label_table().Lookup(q.label);
      if (label == kNullLabel) return NodeSet(n);
      return ctx.labels.Set(label);  // word-wise copy of the cached set
    }
    case Qualifier::Kind::kAnd: {
      NodeSet out = EvalQualifierCtx(ctx, *q.left);
      NodeSet rhs = EvalQualifierCtx(ctx, *q.right);
      out.IntersectWith(rhs);
      return out;
    }
    case Qualifier::Kind::kOr: {
      NodeSet out = EvalQualifierCtx(ctx, *q.left);
      NodeSet rhs = EvalQualifierCtx(ctx, *q.right);
      out.UnionWith(rhs);
      return out;
    }
    case Qualifier::Kind::kNot: {
      NodeSet out = EvalQualifierCtx(ctx, *q.left);
      out.Complement();
      return out;
    }
  }
  TREEQ_CHECK(false);
  return NodeSet(n);
}

NodeSet EvalPathExistsCtx(const EvalCtx& ctx, const PathExpr& path,
                          const NodeSet& target) {
  const int n = ctx.tree.num_nodes();
  if (Aborted(ctx)) return NodeSet(n);
  switch (path.kind) {
    case PathExpr::Kind::kStep: {
      // n reaches the target via this step iff some node in
      // target ∩ (qualifier sets) is an axis-successor of n.
      NodeSet restricted = target;
      ApplyQualifiers(ctx, path, &restricted);
      NodeSet out(n);
      TREEQ_OBS_INC("xpath.axis_ops");
      TREEQ_OBS_HISTOGRAM("xpath.context_size", restricted.size());
      if (!StepImage(ctx, InverseAxis(path.axis), restricted, &out)) {
        return out;
      }
      TREEQ_OBS_HISTOGRAM("xpath.result_size", out.size());
      return out;
    }
    case PathExpr::Kind::kSeq: {
      NodeSet mid = EvalPathExistsCtx(ctx, *path.right, target);
      return EvalPathExistsCtx(ctx, *path.left, mid);
    }
    case PathExpr::Kind::kUnion: {
      NodeSet out = EvalPathExistsCtx(ctx, *path.left, target);
      NodeSet rhs = EvalPathExistsCtx(ctx, *path.right, target);
      out.UnionWith(rhs);
      return out;
    }
  }
  TREEQ_CHECK(false);
  return NodeSet(n);
}

/// [[path]](context) on `doc`, or the status of the first limit tripped.
Result<NodeSet> Evaluate(const Document& doc, const PathExpr& path,
                         const NodeSet& context, const ExecContext& exec,
                         AxisImageMemo* memo) {
  Status abort;
  EvalCtx ctx{doc.tree(), doc.orders(), doc.label_index(), exec, abort,
              memo};
  NodeSet out = EvalPathCtx(ctx, path, context);
  if (!abort.ok()) return abort;
  return out;
}

}  // namespace

Result<NodeSet> EvalPath(const Document& doc, const PathExpr& path,
                         const NodeSet& context, const ExecContext& exec) {
  return Evaluate(doc, path, context, exec, /*memo=*/nullptr);
}

Result<NodeSet> EvalQueryFromRoot(const Document& doc, const PathExpr& path,
                                  const ExecContext& exec,
                                  AxisImageMemo* memo) {
  TREEQ_OBS_SPAN("xpath.eval");
  return Evaluate(doc, path,
                  NodeSet::Singleton(doc.num_nodes(), doc.tree().root()),
                  exec, memo);
}

}  // namespace xpath
}  // namespace treeq
