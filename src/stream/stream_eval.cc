#include "stream/stream_eval.h"

#include <algorithm>
#include <set>

#include "obs/obs.h"

namespace treeq {
namespace stream {

namespace {

using xpath::PathExpr;
using xpath::Qualifier;

/// A compiled linear path: a sequence of steps, each with one global
/// position id and an optional qualifier expression.
struct CompiledStep {
  Axis axis = Axis::kSelf;
  int qual = -1;  // index into CompiledQuery::quals, -1 = none
  int pos = -1;   // global step position
};

struct CompiledPath {
  std::vector<CompiledStep> steps;
};

/// Qualifier boolean expression nodes.
struct CompiledQual {
  enum class Kind { kLabel, kAnd, kOr, kNot, kPathSet };
  Kind kind = Kind::kLabel;
  std::string label;
  int left = -1;
  int right = -1;
  std::vector<int> path_ids;  // kPathSet: OR over these paths
};

struct CompiledQuery {
  std::vector<CompiledPath> paths;  // sub-paths have larger ids
  std::vector<CompiledQual> quals;
  int num_main = 0;  // paths[0..num_main-1] are the main alternatives
  int num_positions = 0;
  bool selection_supported = false;
};

bool IsDownwardAxis(Axis axis) {
  return axis == Axis::kSelf || axis == Axis::kChild ||
         axis == Axis::kDescendant || axis == Axis::kDescendantOrSelf;
}

/// Distributes unions: a PathExpr denotes a set of linear step sequences.
Status Linearize(const PathExpr& p,
                 std::vector<std::vector<const PathExpr*>>* out) {
  switch (p.kind) {
    case PathExpr::Kind::kStep:
      out->push_back({&p});
      return Status::OK();
    case PathExpr::Kind::kSeq: {
      std::vector<std::vector<const PathExpr*>> left, right;
      TREEQ_RETURN_IF_ERROR(Linearize(*p.left, &left));
      TREEQ_RETURN_IF_ERROR(Linearize(*p.right, &right));
      for (const auto& l : left) {
        for (const auto& r : right) {
          std::vector<const PathExpr*> seq = l;
          seq.insert(seq.end(), r.begin(), r.end());
          out->push_back(std::move(seq));
        }
      }
      return Status::OK();
    }
    case PathExpr::Kind::kUnion:
      TREEQ_RETURN_IF_ERROR(Linearize(*p.left, out));
      return Linearize(*p.right, out);
  }
  return Status::Internal("unreachable");
}

class Compiler {
 public:
  explicit Compiler(CompiledQuery* out) : out_(out) {}

  Status CompileMain(const PathExpr& query) {
    std::vector<std::vector<const PathExpr*>> alternatives;
    TREEQ_RETURN_IF_ERROR(Linearize(query, &alternatives));
    out_->num_main = static_cast<int>(alternatives.size());
    // Reserve ALL main path slots up front so that qualifier sub-paths of
    // early alternatives cannot steal the ids of later alternatives.
    out_->paths.resize(alternatives.size());
    for (size_t i = 0; i < alternatives.size(); ++i) {
      TREEQ_RETURN_IF_ERROR(
          CompilePathInto(static_cast<int>(i), alternatives[i]));
    }
    return Status::OK();
  }

 private:
  Result<int> CompilePath(const std::vector<const PathExpr*>& steps) {
    int id = static_cast<int>(out_->paths.size());
    out_->paths.emplace_back();
    TREEQ_RETURN_IF_ERROR(CompilePathInto(id, steps));
    return id;
  }

  Status CompilePathInto(int id, const std::vector<const PathExpr*>& steps) {
    // Note: compile steps after reserving the slot so nested sub-paths get
    // larger ids (the close pass evaluates paths in decreasing id order).
    std::vector<CompiledStep> compiled;
    for (const PathExpr* step : steps) {
      TREEQ_CHECK(step->kind == PathExpr::Kind::kStep);
      if (!IsDownwardAxis(step->axis)) {
        return Status::Unsupported(
            std::string("streaming supports downward forward axes only; "
                        "got ") +
            AxisName(step->axis) +
            " (use ToForwardXPath to eliminate backward axes)");
      }
      CompiledStep cs;
      cs.axis = step->axis;
      cs.pos = out_->num_positions++;
      int qual = -1;
      for (const auto& q : step->qualifiers) {
        TREEQ_ASSIGN_OR_RETURN(int qid, CompileQual(*q));
        if (qual == -1) {
          qual = qid;
        } else {
          CompiledQual conj;
          conj.kind = CompiledQual::Kind::kAnd;
          conj.left = qual;
          conj.right = qid;
          out_->quals.push_back(conj);
          qual = static_cast<int>(out_->quals.size()) - 1;
        }
      }
      cs.qual = qual;
      compiled.push_back(cs);
    }
    out_->paths[id].steps = std::move(compiled);
    return Status::OK();
  }

  Result<int> CompileQual(const Qualifier& q) {
    CompiledQual out;
    switch (q.kind) {
      case Qualifier::Kind::kLabel:
        out.kind = CompiledQual::Kind::kLabel;
        out.label = q.label;
        break;
      case Qualifier::Kind::kAnd:
      case Qualifier::Kind::kOr: {
        out.kind = q.kind == Qualifier::Kind::kAnd ? CompiledQual::Kind::kAnd
                                                   : CompiledQual::Kind::kOr;
        TREEQ_ASSIGN_OR_RETURN(out.left, CompileQual(*q.left));
        TREEQ_ASSIGN_OR_RETURN(out.right, CompileQual(*q.right));
        break;
      }
      case Qualifier::Kind::kNot: {
        out.kind = CompiledQual::Kind::kNot;
        TREEQ_ASSIGN_OR_RETURN(out.left, CompileQual(*q.left));
        break;
      }
      case Qualifier::Kind::kPath: {
        out.kind = CompiledQual::Kind::kPathSet;
        std::vector<std::vector<const PathExpr*>> linear;
        TREEQ_RETURN_IF_ERROR(Linearize(*q.path, &linear));
        for (const auto& seq : linear) {
          TREEQ_ASSIGN_OR_RETURN(int id, CompilePath(seq));
          out.path_ids.push_back(id);
        }
        break;
      }
    }
    out_->quals.push_back(std::move(out));
    return static_cast<int>(out_->quals.size()) - 1;
  }

  CompiledQuery* out_;
};

/// Label-only qualifier check (for the selection-supported fragment).
bool QualIsLabelOnly(const CompiledQuery& cq, int qual) {
  if (qual == -1) return true;
  const CompiledQual& q = cq.quals[qual];
  switch (q.kind) {
    case CompiledQual::Kind::kLabel:
      return true;
    case CompiledQual::Kind::kAnd:
      return QualIsLabelOnly(cq, q.left) && QualIsLabelOnly(cq, q.right);
    default:
      return false;
  }
}

bool SelectionSupported(const CompiledQuery& cq) {
  for (int p = 0; p < cq.num_main; ++p) {
    const CompiledPath& path = cq.paths[p];
    for (size_t j = 0; j + 1 < path.steps.size(); ++j) {
      if (!QualIsLabelOnly(cq, path.steps[j].qual)) return false;
    }
  }
  return true;
}

}  // namespace

class StreamMatcher::Impl {
 public:
  explicit Impl(CompiledQuery cq) : cq_(std::move(cq)) {
    stats_.frame_bytes =
        3 * static_cast<size_t>(cq_.num_positions) + sizeof(NodeId) + 16;
  }

  void OnEvent(const SaxEvent& event) {
    ++stats_.events;
    TREEQ_OBS_INC("stream.events");
    if (event.kind == SaxEvent::Kind::kStartElement) {
      OnStart(event);
    } else {
      OnEnd();
    }
  }

  bool Matches() const { return matches_; }

  std::vector<NodeId> SelectedNodes() const {
    std::vector<NodeId> out(selected_.begin(), selected_.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  const CompiledQuery& compiled() const { return cq_; }
  const StreamStats& stats() const { return stats_; }

 private:
  struct Frame {
    NodeId node = kNullNode;
    std::vector<std::string> labels;
    // Boolean machinery: per position, whether some closed child (resp.
    // strict-descendant) subtree contains a node matching the step suffix
    // starting there.
    std::vector<char> child_sat;
    std::vector<char> desc_sat;
    // Selection machinery: per position of a *main* path, whether this
    // node is a candidate (axis admits it) / matched the prefix up to and
    // including the step (labels checked).
    std::vector<char> match_prefix;
    std::vector<char> active_child;
    std::vector<char> active_desc;
    // Main positions whose final decision waits for this node's close.
    std::vector<int> pending_final;
  };

  bool HasLabel(const Frame& f, const std::string& label) const {
    return std::find(f.labels.begin(), f.labels.end(), label) !=
           f.labels.end();
  }

  /// Label test + label-only qualifier parts of a step at open time.
  bool LabelQualsOk(const Frame& f, int qual) const {
    if (qual == -1) return true;
    const CompiledQual& q = cq_.quals[qual];
    switch (q.kind) {
      case CompiledQual::Kind::kLabel:
        return HasLabel(f, q.label);
      case CompiledQual::Kind::kAnd:
        return LabelQualsOk(f, q.left) && LabelQualsOk(f, q.right);
      default:
        return true;  // deferred to close time
    }
  }

  void OnStart(const SaxEvent& event) {
    stack_.emplace_back();
    Frame& f = stack_.back();
    f.node = event.node;
    f.labels = event.labels;
    f.child_sat.assign(cq_.num_positions, 0);
    f.desc_sat.assign(cq_.num_positions, 0);
    f.match_prefix.assign(cq_.num_positions, 0);
    f.active_child.assign(cq_.num_positions, 0);
    f.active_desc.assign(cq_.num_positions, 0);
    stats_.peak_frames = std::max(stats_.peak_frames, stack_.size());
    TREEQ_OBS_GAUGE_MAX("stream.peak_stack_depth", stack_.size());

    // Selection prefix propagation (main paths only).
    const bool is_root = stack_.size() == 1;
    const Frame* parent = is_root ? nullptr : &stack_[stack_.size() - 2];
    for (int p = 0; p < cq_.num_main; ++p) {
      const CompiledPath& path = cq_.paths[p];
      for (size_t j = 0; j < path.steps.size(); ++j) {
        const CompiledStep& step = path.steps[j];
        // Does the axis admit this node for step j?
        bool candidate = false;
        bool keep_desc = false;
        if (j == 0) {
          if (is_root) {
            candidate = step.axis == Axis::kSelf ||
                        step.axis == Axis::kDescendantOrSelf;
          } else {
            // non-root nodes reach step 0 via the root's activity flags
            candidate = parent->active_child[step.pos] ||
                        parent->active_desc[step.pos];
            keep_desc = parent->active_desc[step.pos];
          }
          if (is_root && (step.axis == Axis::kDescendant ||
                          step.axis == Axis::kDescendantOrSelf)) {
            f.active_desc[step.pos] = 1;
          }
          if (is_root && step.axis == Axis::kChild) {
            f.active_child[step.pos] = 1;
          }
        } else {
          if (parent != nullptr) {
            candidate = parent->active_child[step.pos] ||
                        parent->active_desc[step.pos];
            keep_desc = parent->active_desc[step.pos];
          }
        }
        if (keep_desc) f.active_desc[step.pos] = 1;
        if (!candidate) continue;
        if (!LabelQualsOk(f, step.qual)) continue;
        // Self-axis chains within the same node resolve in step order.
        f.match_prefix[step.pos] = 1;
        if (j + 1 == path.steps.size()) {
          // Final step matched (labels). Non-label qualifiers (allowed on
          // the final step) resolve at close.
          if (step.qual == -1 || QualIsLabelOnly(cq_, step.qual)) {
            if (f.node != kNullNode) selected_.insert(f.node);
            prefix_matched_ = true;
          } else {
            f.pending_final.push_back(step.pos);
          }
        } else {
          const CompiledStep& next = path.steps[j + 1];
          switch (next.axis) {
            case Axis::kSelf:
              // handled by in-order iteration: mark candidacy by treating
              // the next step immediately.
              // Fall through to candidacy via a direct recursion:
              // emulate by setting a transient candidate; the loop below
              // (same j order) covers it because next.pos > step.pos is
              // processed later in this same loop iteration order only if
              // j+1 loop index — we are iterating j in order, so the next
              // iteration handles it via `self_candidates_`.
              self_candidate_.push_back(next.pos);
              break;
            case Axis::kChild:
              f.active_child[next.pos] = 1;
              break;
            case Axis::kDescendant:
              f.active_desc[next.pos] = 1;
              break;
            case Axis::kDescendantOrSelf:
              f.active_desc[next.pos] = 1;
              self_candidate_.push_back(next.pos);
              break;
            default:
              break;
          }
        }
        // Apply self-candidacy produced for this very position.
        if (!self_candidate_.empty()) {
          // The candidate flags for later steps of this path at this node.
          // They are consumed when the loop reaches step j+1 below.
        }
      }
      // Second pass within the path for self-chains: repeat until no new
      // matches (at most |path| iterations).
      bool changed = !self_candidate_.empty();
      while (changed) {
        changed = false;
        std::vector<int> pending = std::move(self_candidate_);
        self_candidate_.clear();
        for (int pos : pending) {
          // Find the step with this position in the current path.
          for (size_t j = 0; j < path.steps.size(); ++j) {
            const CompiledStep& step = path.steps[j];
            if (step.pos != pos || f.match_prefix[pos]) continue;
            if (!LabelQualsOk(f, step.qual)) continue;
            f.match_prefix[pos] = 1;
            changed = true;
            if (j + 1 == path.steps.size()) {
              if (step.qual == -1 || QualIsLabelOnly(cq_, step.qual)) {
                if (f.node != kNullNode) selected_.insert(f.node);
                prefix_matched_ = true;
              } else {
                f.pending_final.push_back(step.pos);
              }
            } else {
              const CompiledStep& next = path.steps[j + 1];
              switch (next.axis) {
                case Axis::kSelf:
                  self_candidate_.push_back(next.pos);
                  break;
                case Axis::kChild:
                  f.active_child[next.pos] = 1;
                  break;
                case Axis::kDescendant:
                  f.active_desc[next.pos] = 1;
                  break;
                case Axis::kDescendantOrSelf:
                  f.active_desc[next.pos] = 1;
                  self_candidate_.push_back(next.pos);
                  break;
                default:
                  break;
              }
            }
          }
        }
        changed = changed || !self_candidate_.empty();
        if (self_candidate_.empty()) break;
      }
      self_candidate_.clear();
    }
  }

  void OnEnd() {
    TREEQ_CHECK(!stack_.empty());
    Frame& f = stack_.back();
    // Compute, for every path (sub-paths first) and every step position,
    // whether this node matches the step suffix starting there.
    std::vector<char> match(cq_.num_positions, 0);
    for (int p = static_cast<int>(cq_.paths.size()) - 1; p >= 0; --p) {
      const CompiledPath& path = cq_.paths[p];
      for (int j = static_cast<int>(path.steps.size()) - 1; j >= 0; --j) {
        const CompiledStep& step = path.steps[j];
        if (!StepLabelAndQualTrue(f, step, match)) continue;
        bool cont = true;
        if (j + 1 < static_cast<int>(path.steps.size())) {
          const CompiledStep& next = path.steps[j + 1];
          switch (next.axis) {
            case Axis::kSelf:
              cont = match[next.pos];
              break;
            case Axis::kChild:
              cont = f.child_sat[next.pos];
              break;
            case Axis::kDescendant:
              cont = f.desc_sat[next.pos];
              break;
            case Axis::kDescendantOrSelf:
              cont = match[next.pos] || f.desc_sat[next.pos];
              break;
            default:
              cont = false;
          }
        }
        if (cont) match[step.pos] = 1;
      }
    }

    // Pending final-step selections: the step's full qualifier is now
    // decidable.
    for (int pos : f.pending_final) {
      // Locate the main step with this position.
      for (int p = 0; p < cq_.num_main; ++p) {
        const CompiledPath& path = cq_.paths[p];
        if (path.steps.empty() || path.steps.back().pos != pos) continue;
        if (QualTrue(f, path.steps.back().qual, match)) {
          if (f.node != kNullNode) selected_.insert(f.node);
          prefix_matched_ = true;
        }
      }
    }

    // Boolean result at the root's close: does some main alternative have a
    // match reachable from the root context?
    if (stack_.size() == 1) {
      for (int p = 0; p < cq_.num_main; ++p) {
        const CompiledPath& path = cq_.paths[p];
        TREEQ_CHECK(!path.steps.empty());
        const CompiledStep& first = path.steps[0];
        bool reach = false;
        switch (first.axis) {
          case Axis::kSelf:
            reach = match[first.pos];
            break;
          case Axis::kChild:
            reach = f.child_sat[first.pos];
            break;
          case Axis::kDescendant:
            reach = f.desc_sat[first.pos];
            break;
          case Axis::kDescendantOrSelf:
            reach = match[first.pos] || f.desc_sat[first.pos];
            break;
          default:
            break;
        }
        matches_ = matches_ || reach;
      }
      stack_.pop_back();
      return;
    }

    // Fold this subtree's matches into the parent.
    Frame& parent = stack_[stack_.size() - 2];
    for (int pos = 0; pos < cq_.num_positions; ++pos) {
      parent.child_sat[pos] |= match[pos];
      parent.desc_sat[pos] |= match[pos] | f.desc_sat[pos];
    }
    stack_.pop_back();
  }

  /// Label test + full qualifier (using the close-time `match` vector).
  bool StepLabelAndQualTrue(const Frame& f, const CompiledStep& step,
                            const std::vector<char>& match) const {
    return QualTrue(f, step.qual, match);
  }

  bool QualTrue(const Frame& f, int qual,
                const std::vector<char>& match) const {
    if (qual == -1) return true;
    const CompiledQual& q = cq_.quals[qual];
    switch (q.kind) {
      case CompiledQual::Kind::kLabel:
        return HasLabel(f, q.label);
      case CompiledQual::Kind::kAnd:
        return QualTrue(f, q.left, match) && QualTrue(f, q.right, match);
      case CompiledQual::Kind::kOr:
        return QualTrue(f, q.left, match) || QualTrue(f, q.right, match);
      case CompiledQual::Kind::kNot:
        return !QualTrue(f, q.left, match);
      case CompiledQual::Kind::kPathSet: {
        for (int pid : q.path_ids) {
          const CompiledPath& path = cq_.paths[pid];
          TREEQ_CHECK(!path.steps.empty());
          const CompiledStep& first = path.steps[0];
          bool reach = false;
          switch (first.axis) {
            case Axis::kSelf:
              reach = match[first.pos];
              break;
            case Axis::kChild:
              reach = f.child_sat[first.pos];
              break;
            case Axis::kDescendant:
              reach = f.desc_sat[first.pos];
              break;
            case Axis::kDescendantOrSelf:
              reach = match[first.pos] || f.desc_sat[first.pos];
              break;
            default:
              break;
          }
          if (reach) return true;
        }
        return false;
      }
    }
    return false;
  }

  CompiledQuery cq_;
  std::vector<Frame> stack_;
  std::set<NodeId> selected_;
  std::vector<int> self_candidate_;
  bool matches_ = false;
  bool prefix_matched_ = false;
  StreamStats stats_;
};

StreamMatcher::StreamMatcher(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

StreamMatcher::~StreamMatcher() = default;

Result<std::unique_ptr<StreamMatcher>> StreamMatcher::Compile(
    const xpath::PathExpr& query) {
  CompiledQuery cq;
  Compiler compiler(&cq);
  TREEQ_RETURN_IF_ERROR(compiler.CompileMain(query));
  cq.selection_supported = SelectionSupported(cq);
  return std::unique_ptr<StreamMatcher>(
      new StreamMatcher(std::make_unique<Impl>(std::move(cq))));
}

void StreamMatcher::OnEvent(const SaxEvent& event) { impl_->OnEvent(event); }

bool StreamMatcher::Matches() const { return impl_->Matches(); }

bool StreamMatcher::selection_supported() const {
  return impl_->compiled().selection_supported;
}

std::vector<NodeId> StreamMatcher::SelectedNodes() const {
  TREEQ_CHECK(selection_supported());
  return impl_->SelectedNodes();
}

const StreamStats& StreamMatcher::stats() const { return impl_->stats(); }

Result<bool> StreamMatcher::MatchTree(const xpath::PathExpr& query,
                                      const Tree& tree, StreamStats* stats,
                                      const ExecContext& exec) {
  TREEQ_OBS_SPAN("stream.match_tree");
  TREEQ_ASSIGN_OR_RETURN(std::unique_ptr<StreamMatcher> matcher,
                         Compile(query));
  TREEQ_RETURN_IF_ERROR(StreamTree(
      tree, [&matcher](const SaxEvent& e) { matcher->OnEvent(e); }, exec));
  if (stats != nullptr) *stats = matcher->stats();
  return matcher->Matches();
}

Result<std::vector<NodeId>> StreamMatcher::SelectFromTree(
    const xpath::PathExpr& query, const Tree& tree, StreamStats* stats,
    const ExecContext& exec) {
  TREEQ_OBS_SPAN("stream.select_from_tree");
  TREEQ_ASSIGN_OR_RETURN(std::unique_ptr<StreamMatcher> matcher,
                         Compile(query));
  if (!matcher->selection_supported()) {
    return Status::Unsupported(
        "node selection needs label-only qualifiers on non-final steps");
  }
  TREEQ_RETURN_IF_ERROR(StreamTree(
      tree, [&matcher](const SaxEvent& e) { matcher->OnEvent(e); }, exec));
  if (stats != nullptr) *stats = matcher->stats();
  return matcher->SelectedNodes();
}

}  // namespace stream
}  // namespace treeq
