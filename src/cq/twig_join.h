#ifndef TREEQ_CQ_TWIG_JOIN_H_
#define TREEQ_CQ_TWIG_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cq/ast.h"
#include "tree/document.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file twig_join.h
/// Holistic twig joins ([13, 48], Section 6): matching a tree pattern
/// ("twig") against a document by processing all structural joins at once
/// over document-ordered label streams and per-pattern-node stacks, instead
/// of materializing binary-join intermediate results. Section 6 points out
/// that this is an instance of arc-consistency-based processing; the
/// stacks compactly encode the consistent candidates.
///
/// TwigStackJoin implements the TwigStack algorithm (getNext stream
/// alignment, stack discipline, path-solution emission, final merge).
/// TwigByStructuralJoins is the binary-join baseline it was proposed to
/// beat; both report intermediate-result counts for the benches.

namespace treeq {
namespace cq {

/// One node of a twig pattern.
struct TwigPatternNode {
  /// Label the matched document node must carry.
  std::string label;
  /// Relation to the parent pattern node: Axis::kChild or
  /// Axis::kDescendant. Ignored for the root.
  Axis edge = Axis::kDescendant;
  /// Parent pattern node (-1 for the root, which must be node 0).
  int parent = -1;
};

/// A twig pattern: node 0 is the root; parents precede children.
struct TwigPattern {
  std::vector<TwigPatternNode> nodes;

  Status Validate() const;
  std::vector<int> Children(int node) const;
  std::vector<int> Leaves() const;
  bool IsPath() const;

  /// The equivalent conjunctive query (head = all pattern nodes, in order).
  ConjunctiveQuery ToConjunctiveQuery() const;

  /// "catalog//product[/name]//rating5"-ish rendering for logs.
  std::string ToString() const;
};

/// Work counters for the benches.
struct TwigStats {
  /// Elements pushed on stacks (TwigStack) or intermediate join-result
  /// tuples (structural-join baseline).
  uint64_t intermediate_results = 0;
  /// Root-to-leaf path solutions emitted before the merge (TwigStack only).
  uint64_t path_solutions = 0;
};

/// TwigStack: all matches of `pattern`, one tuple per match with arity
/// |pattern| (tuple[i] = document node matched by pattern node i).
///
/// Label streams come from the document's cached LabelIndex
/// (tree/label_index.h): one index build serves every pattern node and
/// every call, instead of one arena scan + sort per node.
///
/// Both algorithms charge the ExecContext per stream advance / stack push /
/// solution emitted (and the intermediate tuples against the memory
/// budget), so skew-blown joins abort instead of running away.
Result<TupleSet> TwigStackJoin(const TwigPattern& pattern,
                               const Document& doc,
                               TwigStats* stats = nullptr,
                               const ExecContext& exec =
                                   ExecContext::Unbounded());

/// Baseline: decompose the twig into binary (parent, child) structural
/// joins, evaluate each with the stack-tree merge of storage/, and hash-join
/// the edge results bottom-up. Same label-stream routing as TwigStackJoin.
Result<TupleSet> TwigByStructuralJoins(const TwigPattern& pattern,
                                       const Document& doc,
                                       TwigStats* stats = nullptr,
                                       const ExecContext& exec =
                                           ExecContext::Unbounded());

}  // namespace cq
}  // namespace treeq

#endif  // TREEQ_CQ_TWIG_JOIN_H_
