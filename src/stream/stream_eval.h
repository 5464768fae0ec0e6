#ifndef TREEQ_STREAM_STREAM_EVAL_H_
#define TREEQ_STREAM_STREAM_EVAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "stream/sax.h"
#include "tree/node_set.h"
#include "util/status.h"
#include "xpath/ast.h"

/// \file stream_eval.h
/// One-pass evaluation of downward forward Core XPath over SAX streams
/// (Section 5; transducer-network style [61, 65]). The matcher keeps one
/// frame per open element, each of size O(|Q|), so its state is
/// O(depth * |Q|) — matching the streaming memory lower bound discussion of
/// [40] (which shows Omega(depth) is unavoidable for Boolean Core XPath).
///
/// Supported fragment: axes self, child, descendant, descendant-or-self in
/// steps and qualifier paths; qualifiers may use lab() tests, and, or, not
/// (negation is safe because a qualifier is resolved only when its node
/// closes, by which time the whole subtree has been seen). Use
/// xpath/to_forward.h to eliminate backward axes first.
///
///  - Boolean result ([[p]](root) nonempty): always available.
///  - Node selection: available when every non-final step carries only
///    label qualifiers (then a node's selection is decidable without
///    buffering); otherwise selection_supported() is false and only the
///    Boolean result is computed. This mirrors the candidate-buffering
///    lower bounds of [5]: general node selection inherently buffers, so
///    the O(depth * |Q|) guarantee is kept by restricting the fragment
///    instead.
///
/// A query compiles once into an immutable StreamProgram (the engine's
/// Plan keeps one); each run is a StreamMatcher holding only run state:
///   - one flat byte stack with one row per open element — the node id, one
///     byte per distinct label test, one flag byte per step position;
///   - the label tests resolved to the document's LabelIds once per run (a
///     label the document lacks never matches), so a node's label test is
///     an integer compare;
///   - the selection, written straight into a NodeSet.
/// The matcher core consumes (node, label bits) events. Tree runs feed it
/// from WalkTree; text streams feed SaxEvents through OnEvent, which tests
/// label names instead of ids. It is the same matcher either way.

namespace treeq {
namespace stream {

/// Memory/work accounting for the benches.
struct StreamStats {
  /// Maximum number of simultaneously open frames (== max depth + 1).
  size_t peak_frames = 0;
  /// Bytes of one frame row (fixed by the program).
  size_t frame_bytes = 0;
  uint64_t events = 0;

  size_t PeakStateBytes() const { return peak_frames * frame_bytes; }
};

/// A compiled query. Immutable and cheap to copy (copies share the
/// compiled form); one program serves any number of concurrent runs.
class StreamProgram {
 public:
  /// Compiles `query`; Unsupported if it falls outside the fragment above.
  static Result<StreamProgram> Compile(const xpath::PathExpr& query);

  /// Whether node selection is available for this query.
  bool selection_supported() const;

  /// Bytes of one frame row: node id, label-test bytes, position bytes.
  size_t frame_bytes() const;

 private:
  friend class StreamMatcher;
  struct Impl;
  explicit StreamProgram(std::shared_ptr<const Impl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<const Impl> impl_;
};

/// One run of a program over one event stream. A run reports
/// `stream.events` and `stream.peak_stack_depth` to the obs registry
/// once, when it ends.
class StreamMatcher {
 public:
  /// `universe` bounds the node ids the stream reports ([0, universe)).
  /// When it is positive and the program supports selection, the run
  /// collects the selected nodes; 0 runs the Boolean matcher only.
  explicit StreamMatcher(const StreamProgram& program, int universe = 0);
  ~StreamMatcher();
  StreamMatcher(const StreamMatcher&) = delete;
  StreamMatcher& operator=(const StreamMatcher&) = delete;

  /// Feeds one event. Events must form a single balanced document.
  void OnEvent(const SaxEvent& event);

  /// After the full stream: did [[query]](root) select anything?
  bool Matches() const;

  /// After the full stream: the selected nodes. Requires a positive
  /// universe and selection_supported().
  const NodeSet& selected() const;

  const StreamStats& stats() const { return stats_; }

  /// Streams a whole tree through the matcher (WalkTree) and reports the
  /// Boolean result. `exec` is charged one unit per start or end event,
  /// and the stream aborts mid-way when a limit trips. Because the
  /// matcher's state is O(depth * |Q|), aborting leaves nothing big to
  /// tear down — this is the engine's graceful-degradation fallback path.
  static Result<bool> MatchTree(const StreamProgram& program,
                                const Tree& tree,
                                StreamStats* stats = nullptr,
                                const ExecContext& exec =
                                    ExecContext::Unbounded());

  /// Streams a whole tree and returns the selected nodes; charged as
  /// MatchTree. Unsupported unless selection_supported().
  static Result<NodeSet> SelectFromTree(
      const StreamProgram& program, const Tree& tree,
      StreamStats* stats = nullptr,
      const ExecContext& exec = ExecContext::Unbounded());

 private:
  /// The core: opens a frame for `node`; has_label(i) says whether the
  /// node carries the program's i-th label test.
  template <typename HasLabel>
  void Start(NodeId node, HasLabel&& has_label);
  /// Closes the innermost frame.
  void End();
  Status Run(const Tree& tree, const ExecContext& exec);

  uint8_t* Row(size_t depth) {
    return stack_.data() + depth * stats_.frame_bytes;
  }
  void Select(const uint8_t* row);

  std::shared_ptr<const StreamProgram::Impl> program_;
  /// Rows of the open frames, innermost last; grows to the peak depth
  /// and is reused from then on.
  std::vector<uint8_t> stack_;
  size_t depth_ = 0;
  /// Tree runs: the label tests as the document's LabelIds.
  std::vector<LabelId> label_ids_;
  bool collect_;
  /// Whether End must evaluate the close-time pass: always for Boolean
  /// runs, and for selecting runs whose final step has a path qualifier.
  bool close_pass_;
  bool matches_ = false;
  NodeSet selected_;
  StreamStats stats_;
};

}  // namespace stream
}  // namespace treeq

#endif  // TREEQ_STREAM_STREAM_EVAL_H_
