#ifndef TREEQ_STREAM_STREAM_EVAL_H_
#define TREEQ_STREAM_STREAM_EVAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stream/sax.h"
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

namespace treeq {
namespace stream {

/// Memory/work accounting for the benches.
struct StreamStats {
  /// Maximum number of simultaneously open frames (== max depth + 1).
  size_t peak_frames = 0;
  /// Per-frame state size in bytes (fixed at compile time).
  size_t frame_bytes = 0;
  uint64_t events = 0;

  size_t PeakStateBytes() const { return peak_frames * frame_bytes; }
};

/// A compiled streaming matcher. Compile once per (query, document) run.
class StreamMatcher {
 public:
  /// Compiles `query`; Unsupported if it falls outside the fragment above.
  static Result<std::unique_ptr<StreamMatcher>> Compile(
      const xpath::PathExpr& query);

  ~StreamMatcher();
  StreamMatcher(const StreamMatcher&) = delete;
  StreamMatcher& operator=(const StreamMatcher&) = delete;

  /// Feeds one event. Events must form a single balanced document.
  void OnEvent(const SaxEvent& event);

  /// After the full stream: did [[query]](root) select anything?
  bool Matches() const;

  /// Whether node selection is available for this query.
  bool selection_supported() const;

  /// After the full stream: the selected nodes (document order, distinct).
  /// Requires selection_supported().
  std::vector<NodeId> SelectedNodes() const;

  const StreamStats& stats() const;

  /// Convenience: stream a whole tree (its SAX events, stream/sax.h) and
  /// report the Boolean result. `exec` is charged one unit per SAX event,
  /// and the stream aborts mid-way when a limit trips. Because the
  /// matcher's state is O(depth * |Q|), aborting leaves nothing big to
  /// tear down — this is the engine's graceful-degradation fallback path.
  static Result<bool> MatchTree(const xpath::PathExpr& query,
                                const Tree& tree,
                                StreamStats* stats = nullptr,
                                const ExecContext& exec =
                                    ExecContext::Unbounded());

  /// Convenience: stream a whole tree and report selected nodes; charged
  /// as MatchTree.
  static Result<std::vector<NodeId>> SelectFromTree(
      const xpath::PathExpr& query, const Tree& tree,
      StreamStats* stats = nullptr,
      const ExecContext& exec = ExecContext::Unbounded());

 private:
  class Impl;
  explicit StreamMatcher(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace stream
}  // namespace treeq

#endif  // TREEQ_STREAM_STREAM_EVAL_H_
