#include "stream/stream_eval.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "obs/obs.h"

namespace treeq {
namespace stream {

namespace {

using xpath::PathExpr;
using xpath::Qualifier;

/// Per-position flags of a frame row.
constexpr uint8_t kActiveChild = 1;   // children are candidates for the step
constexpr uint8_t kActiveDesc = 2;    // all descendants are candidates
constexpr uint8_t kChildSat = 4;      // a closed child matches the suffix
constexpr uint8_t kDescSat = 8;       // a closed strict descendant does
constexpr uint8_t kMatch = 16;        // this node matches it (at close)
constexpr uint8_t kPendingFinal = 32;  // final step waits for its qualifier

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

/// A step of a linear path; each step owns one global position.
struct Step {
  Axis axis = Axis::kSelf;
  int qual = -1;  // index into quals, -1 = none
  int pos = -1;   // global step position
  /// The qualifier is decided by label tests alone (at open time).
  bool label_only = true;
};

/// Qualifier expression node.
struct Qual {
  enum class Kind { kLabel, kAnd, kOr, kNot, kPathSet };
  Kind kind = Kind::kLabel;
  int label = -1;  // kLabel: index into labels
  int left = -1;
  int right = -1;
  std::vector<int> path_ids;  // kPathSet: OR over these paths
};

/// Whether a node whose closed subtree left `flags` reaches a match of
/// the step suffix starting at `step` along the step's axis.
bool Reaches(const uint8_t* flags, const Step& step) {
  const uint8_t f = flags[step.pos];
  switch (step.axis) {
    case Axis::kSelf:
      return f & kMatch;
    case Axis::kChild:
      return f & kChildSat;
    case Axis::kDescendant:
      return f & kDescSat;
    case Axis::kDescendantOrSelf:
      return f & (kMatch | kDescSat);
    default:
      return false;
  }
}

}  // namespace

/// The compiled query: linear paths (unions distributed) whose steps each
/// own one global position, and qualifier expression nodes.
struct StreamProgram::Impl {
  /// paths[0..num_main-1] are the main alternatives; qualifier sub-paths
  /// get larger ids than the path whose step they qualify, so the close
  /// pass evaluates paths in decreasing id order.
  std::vector<std::vector<Step>> paths;
  std::vector<Qual> quals;
  /// Distinct label names the qualifiers test.
  std::vector<std::string> labels;
  int num_main = 0;
  int num_positions = 0;
  bool selection_supported = false;
  /// Some main final step has a qualifier beyond label tests, so a
  /// selecting run decides it at close time.
  bool defers_selection = false;

  size_t RowBytes() const {
    return sizeof(NodeId) + labels.size() +
           static_cast<size_t>(num_positions);
  }

  /// Whether the `qual` is label tests joined by `and`.
  bool LabelOnly(int qual) const {
    if (qual == -1) return true;
    const Qual& q = quals[qual];
    switch (q.kind) {
      case Qual::Kind::kLabel:
        return true;
      case Qual::Kind::kAnd:
        return LabelOnly(q.left) && LabelOnly(q.right);
      default:
        return false;
    }
  }

  /// The label-test part of `qual`, decidable when the node opens; other
  /// parts count as true until close.
  bool LabelsOk(const uint8_t* node_labels, int qual) const {
    if (qual == -1) return true;
    const Qual& q = quals[qual];
    switch (q.kind) {
      case Qual::Kind::kLabel:
        return node_labels[q.label] != 0;
      case Qual::Kind::kAnd:
        return LabelsOk(node_labels, q.left) &&
               LabelsOk(node_labels, q.right);
      default:
        return true;
    }
  }

  /// The whole of `qual` at close time, when `flags` holds the node's
  /// closed-subtree matches.
  bool QualTrue(const uint8_t* node_labels, const uint8_t* flags,
                int qual) const {
    if (qual == -1) return true;
    const Qual& q = quals[qual];
    switch (q.kind) {
      case Qual::Kind::kLabel:
        return node_labels[q.label] != 0;
      case Qual::Kind::kAnd:
        return QualTrue(node_labels, flags, q.left) &&
               QualTrue(node_labels, flags, q.right);
      case Qual::Kind::kOr:
        return QualTrue(node_labels, flags, q.left) ||
               QualTrue(node_labels, flags, q.right);
      case Qual::Kind::kNot:
        return !QualTrue(node_labels, flags, q.left);
      case Qual::Kind::kPathSet:
        for (int pid : q.path_ids) {
          if (Reaches(flags, paths[pid][0])) return true;
        }
        return false;
    }
    return false;
  }

  Status CompileMain(const PathExpr& query) {
    std::vector<std::vector<const PathExpr*>> alternatives;
    TREEQ_RETURN_IF_ERROR(Linearize(query, &alternatives));
    num_main = static_cast<int>(alternatives.size());
    // Reserve ALL main path slots up front so that qualifier sub-paths of
    // early alternatives cannot steal the ids of later alternatives.
    paths.resize(alternatives.size());
    for (size_t i = 0; i < alternatives.size(); ++i) {
      TREEQ_RETURN_IF_ERROR(
          CompilePathInto(static_cast<int>(i), alternatives[i]));
    }
    selection_supported = true;
    for (int p = 0; p < num_main; ++p) {
      const std::vector<Step>& steps = paths[p];
      for (size_t j = 0; j + 1 < steps.size(); ++j) {
        if (!steps[j].label_only) selection_supported = false;
      }
      if (!steps.back().label_only) defers_selection = true;
    }
    return Status::OK();
  }

  /// Compiles `steps` into paths[id]; the slot is reserved first so nested
  /// sub-paths get larger ids.
  Status CompilePathInto(int id, const std::vector<const PathExpr*>& steps) {
    std::vector<Step> compiled;
    for (const PathExpr* step : steps) {
      TREEQ_CHECK(step->kind == PathExpr::Kind::kStep);
      if (!IsDownwardAxis(step->axis)) {
        return Status::Unsupported(
            std::string("streaming supports downward forward axes only; "
                        "got ") +
            AxisName(step->axis) +
            " (use ToForwardXPath to eliminate backward axes)");
      }
      Step cs;
      cs.axis = step->axis;
      cs.pos = num_positions++;
      for (const auto& q : step->qualifiers) {
        TREEQ_ASSIGN_OR_RETURN(int qid, CompileQual(*q));
        if (cs.qual == -1) {
          cs.qual = qid;
        } else {
          Qual conj;
          conj.kind = Qual::Kind::kAnd;
          conj.left = cs.qual;
          conj.right = qid;
          quals.push_back(conj);
          cs.qual = static_cast<int>(quals.size()) - 1;
        }
      }
      cs.label_only = LabelOnly(cs.qual);
      compiled.push_back(cs);
    }
    paths[id] = std::move(compiled);
    return Status::OK();
  }

  Result<int> CompileQual(const Qualifier& q) {
    Qual out;
    switch (q.kind) {
      case Qualifier::Kind::kLabel: {
        out.kind = Qual::Kind::kLabel;
        auto it = std::find(labels.begin(), labels.end(), q.label);
        out.label = static_cast<int>(it - labels.begin());
        if (it == labels.end()) labels.push_back(q.label);
        break;
      }
      case Qualifier::Kind::kAnd:
      case Qualifier::Kind::kOr: {
        out.kind = q.kind == Qualifier::Kind::kAnd ? Qual::Kind::kAnd
                                                   : Qual::Kind::kOr;
        TREEQ_ASSIGN_OR_RETURN(out.left, CompileQual(*q.left));
        TREEQ_ASSIGN_OR_RETURN(out.right, CompileQual(*q.right));
        break;
      }
      case Qualifier::Kind::kNot: {
        out.kind = Qual::Kind::kNot;
        TREEQ_ASSIGN_OR_RETURN(out.left, CompileQual(*q.left));
        break;
      }
      case Qualifier::Kind::kPath: {
        out.kind = Qual::Kind::kPathSet;
        std::vector<std::vector<const PathExpr*>> linear;
        TREEQ_RETURN_IF_ERROR(Linearize(*q.path, &linear));
        for (const auto& seq : linear) {
          const int id = static_cast<int>(paths.size());
          paths.emplace_back();
          TREEQ_RETURN_IF_ERROR(CompilePathInto(id, seq));
          out.path_ids.push_back(id);
        }
        break;
      }
    }
    quals.push_back(std::move(out));
    return static_cast<int>(quals.size()) - 1;
  }
};

Result<StreamProgram> StreamProgram::Compile(const xpath::PathExpr& query) {
  auto impl = std::make_shared<Impl>();
  TREEQ_RETURN_IF_ERROR(impl->CompileMain(query));
  return StreamProgram(std::move(impl));
}

bool StreamProgram::selection_supported() const {
  return impl_->selection_supported;
}

size_t StreamProgram::frame_bytes() const { return impl_->RowBytes(); }

StreamMatcher::StreamMatcher(const StreamProgram& program, int universe)
    : program_(program.impl_),
      collect_(universe > 0 && program_->selection_supported),
      close_pass_(!collect_ || program_->defers_selection),
      selected_(collect_ ? universe : 0) {
  stats_.frame_bytes = program_->RowBytes();
}

StreamMatcher::~StreamMatcher() {
  if (stats_.events == 0) return;
  TREEQ_OBS_COUNT("stream.events", stats_.events);
  TREEQ_OBS_GAUGE_MAX("stream.peak_stack_depth", stats_.peak_frames);
}

template <typename HasLabel>
void StreamMatcher::Start(NodeId node, HasLabel&& has_label) {
  // Locals throughout: stores through the byte rows may alias any member,
  // so the compiler would reload members after each one.
  const StreamProgram::Impl& p = *program_;
  const size_t width = stats_.frame_bytes;
  const size_t num_labels = p.labels.size();
  ++stats_.events;
  const size_t depth = ++depth_;
  if (stack_.size() < depth * width) stack_.resize(depth * width);
  stats_.peak_frames = std::max(stats_.peak_frames, depth);
  uint8_t* row = Row(depth - 1);
  std::memcpy(row, &node, sizeof(NodeId));
  uint8_t* node_labels = row + sizeof(NodeId);
  for (size_t i = 0; i < num_labels; ++i) node_labels[i] = has_label(i);
  uint8_t* flags = node_labels + num_labels;
  std::fill_n(flags, p.num_positions, 0);
  if (!collect_) return;

  // Selection: which main-path steps this node is a candidate for (its
  // parent's active flags, or a self / descendant-or-self step after a
  // step it matched), and what it activates for its own subtree.
  const uint8_t* parent = depth == 1 ? nullptr : flags - width;
  for (int m = 0; m < p.num_main; ++m) {
    const Step* steps = p.paths[m].data();
    const size_t num_steps = p.paths[m].size();
    bool prev_matched = false;
    for (size_t j = 0; j < num_steps; ++j) {
      const Step& step = steps[j];
      bool candidate = prev_matched && (step.axis == Axis::kSelf ||
                                        step.axis == Axis::kDescendantOrSelf);
      if (parent != nullptr) {
        const uint8_t in = parent[step.pos];
        candidate = candidate || (in & (kActiveChild | kActiveDesc)) != 0;
        flags[step.pos] |= in & kActiveDesc;
      } else if (j == 0) {
        // The root is the context node: step 0 starts here.
        candidate = candidate || step.axis == Axis::kSelf ||
                    step.axis == Axis::kDescendantOrSelf;
        if (step.axis == Axis::kChild) flags[step.pos] |= kActiveChild;
        if (step.axis == Axis::kDescendant ||
            step.axis == Axis::kDescendantOrSelf) {
          flags[step.pos] |= kActiveDesc;
        }
      }
      prev_matched = candidate && p.LabelsOk(node_labels, step.qual);
      if (!prev_matched) continue;
      if (j + 1 == num_steps) {
        // A final step's other qualifiers resolve when the node closes.
        if (step.label_only) {
          Select(row);
        } else {
          flags[step.pos] |= kPendingFinal;
        }
        continue;
      }
      const Step& next = steps[j + 1];
      if (next.axis == Axis::kChild) flags[next.pos] |= kActiveChild;
      if (next.axis == Axis::kDescendant ||
          next.axis == Axis::kDescendantOrSelf) {
        flags[next.pos] |= kActiveDesc;
      }
    }
  }
}

void StreamMatcher::End() {
  TREEQ_CHECK(depth_ > 0);
  ++stats_.events;
  --depth_;
  if (!close_pass_) return;
  const StreamProgram::Impl& p = *program_;
  uint8_t* row = Row(depth_);
  const uint8_t* node_labels = row + sizeof(NodeId);
  uint8_t* flags = row + sizeof(NodeId) + p.labels.size();

  // For every path (sub-paths first) and step: does this node match the
  // step suffix starting there?
  for (int path = static_cast<int>(p.paths.size()) - 1; path >= 0; --path) {
    const std::vector<Step>& steps = p.paths[path];
    for (size_t j = steps.size(); j-- > 0;) {
      const Step& step = steps[j];
      if (!p.QualTrue(node_labels, flags, step.qual)) continue;
      if (j + 1 == steps.size() || Reaches(flags, steps[j + 1])) {
        flags[step.pos] |= kMatch;
      }
    }
  }

  if (collect_) {
    // Pending final-step selections: the full qualifier is now decidable.
    for (int m = 0; m < p.num_main; ++m) {
      const Step& last = p.paths[m].back();
      if ((flags[last.pos] & kPendingFinal) &&
          p.QualTrue(node_labels, flags, last.qual)) {
        Select(row);
      }
    }
  }

  if (depth_ == 0) {
    // The root closed: does some main alternative reach a match from it?
    for (int m = 0; m < p.num_main; ++m) {
      matches_ = matches_ || Reaches(flags, p.paths[m][0]);
    }
    return;
  }
  // Fold this subtree's matches into the parent.
  uint8_t* parent = flags - stats_.frame_bytes;
  for (int pos = 0; pos < p.num_positions; ++pos) {
    if (flags[pos] & kMatch) parent[pos] |= kChildSat | kDescSat;
    parent[pos] |= flags[pos] & kDescSat;
  }
}

void StreamMatcher::Select(const uint8_t* row) {
  NodeId node;
  std::memcpy(&node, row, sizeof(NodeId));
  TREEQ_CHECK(node >= 0 && node < selected_.universe());
  selected_.Insert(node);
}

void StreamMatcher::OnEvent(const SaxEvent& event) {
  if (event.kind == SaxEvent::Kind::kEndElement) {
    End();
    return;
  }
  Start(event.node, [&](size_t i) {
    return std::find(event.labels.begin(), event.labels.end(),
                     program_->labels[i]) != event.labels.end();
  });
}

bool StreamMatcher::Matches() const {
  // A selecting run's answer is nonempty exactly when the query matches.
  return collect_ ? !selected_.empty() : matches_;
}

const NodeSet& StreamMatcher::selected() const {
  TREEQ_CHECK(collect_);
  return selected_;
}

Status StreamMatcher::Run(const Tree& tree, const ExecContext& exec) {
  label_ids_.clear();
  for (const std::string& name : program_->labels) {
    label_ids_.push_back(tree.label_table().Lookup(name));
  }
  return stream::WalkTree(
      tree, exec,
      [&](NodeId v) {
        const std::vector<LabelId>& labels = tree.labels(v);
        Start(v, [&](size_t i) {
          return std::find(labels.begin(), labels.end(), label_ids_[i]) !=
                 labels.end();
        });
      },
      [&](NodeId) { End(); });
}

Result<bool> StreamMatcher::MatchTree(const StreamProgram& program,
                                      const Tree& tree, StreamStats* stats,
                                      const ExecContext& exec) {
  TREEQ_OBS_SPAN("stream.match_tree");
  StreamMatcher matcher(program);
  TREEQ_RETURN_IF_ERROR(matcher.Run(tree, exec));
  if (stats != nullptr) *stats = matcher.stats();
  return matcher.Matches();
}

Result<NodeSet> StreamMatcher::SelectFromTree(const StreamProgram& program,
                                              const Tree& tree,
                                              StreamStats* stats,
                                              const ExecContext& exec) {
  TREEQ_OBS_SPAN("stream.select_from_tree");
  if (!program.selection_supported()) {
    return Status::Unsupported(
        "node selection needs label-only qualifiers on non-final steps");
  }
  StreamMatcher matcher(program, tree.num_nodes());
  TREEQ_RETURN_IF_ERROR(matcher.Run(tree, exec));
  if (stats != nullptr) *stats = matcher.stats();
  return std::move(matcher.selected_);
}

}  // namespace stream
}  // namespace treeq
