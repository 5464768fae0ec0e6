#ifndef TREEQ_PLAN_IR_H_
#define TREEQ_PLAN_IR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cq/ast.h"
#include "cq/twig_join.h"
#include "fo/ast.h"
#include "tree/axes.h"

/// \file ir.h
/// The unified logical plan IR. All four front ends (XPath, CQ, monadic
/// datalog, FO) lower into this representation (plan/lower.h), the
/// canonicalizer (plan/canonicalize.h) normalizes it to a stable 128-bit
/// hash, and the cost-based router (plan/route.h) scores physical engines
/// against it.
///
/// The IR is the paper's shared algebra made concrete: a query is a union
/// of *query graphs* — variables constrained by label predicates, related
/// by the axis relations of tree/axes.h, with an ordered subset marked as
/// output (Section 4's conjunctive queries over trees, extended with an
/// optional root anchor so absolute XPath paths keep their semantics).
/// Queries whose source constructs fall outside this fragment (negation,
/// universal quantification, recursive datalog, ...) carry an *opaque*
/// canonical rendering instead: they still get a stable hash (so caches
/// dedupe by normalized text) but only their native engines are eligible.

namespace treeq {
namespace plan {

/// One query variable: conjunction of label predicates plus an optional
/// output position. output_ord == k means this variable is the k-th column
/// of the result tuple (k == 0 and arity 1 means "the" selected node).
struct IrVar {
  std::vector<std::string> labels;
  int output_ord = -1;

  bool is_output() const { return output_ord >= 0; }
};

/// One axis atom: axis(from, to) in the paper's orientation — e.g.
/// Child(u, v) says v is a child of u.
struct IrEdge {
  int from = 0;
  int to = 0;
  Axis axis = Axis::kChild;

  auto operator<=>(const IrEdge&) const = default;
};

/// A conjunctive query graph. When `anchored`, variable 0 denotes the
/// document root (absolute XPath paths); non-anchored graphs are plain
/// conjunctive queries over trees.
struct QueryGraph {
  bool anchored = false;
  std::vector<IrVar> vars;
  std::vector<IrEdge> edges;

  bool IsConnected() const;

  /// Compact one-line rendering: "v0{product} -descendant-> v1{name}=>0".
  std::string Render() const;
};

/// The stable canonical identity of a logical plan: a 128-bit FNV-1a hash
/// of the canonical encoding. Semantically identical queries — across
/// dialects, whitespace, and variable renaming — share one hash.
struct CanonicalHash {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const CanonicalHash&) const = default;
  /// 32 lowercase hex chars.
  std::string ToHex() const;
};

/// A lowered query: a union of query graphs with a fixed output arity
/// (0 = Boolean, 1 = node set, k >= 2 = tuple set), or — when the source
/// query falls outside the structural fragment — an opaque canonical
/// rendering tagged with the source language.
struct LogicalPlan {
  int arity = 1;
  std::vector<QueryGraph> branches;
  /// Set iff `branches` is empty: "<language>:<canonical rendering>".
  std::string opaque;

  bool structural() const { return !branches.empty(); }

  /// Multi-line-free rendering for Explain(): arity, branch count, and one
  /// Render() per branch, separated by " | ".
  std::string Render() const;
};

/// Converts a non-anchored graph to the equivalent conjunctive query
/// (variables named v0..vn in index order, head = output variables in
/// output_ord order). Fails (returns false) for anchored graphs — the
/// root constraint has no CQ atom.
bool GraphToCq(const QueryGraph& graph, cq::ConjunctiveQuery* out);

/// Converts a conjunctive query to a (non-anchored) graph. Duplicate head
/// variables are not representable (output_ord is one-per-var); returns
/// false for those.
bool CqToGraph(const cq::ConjunctiveQuery& query, QueryGraph* out);

/// Converts a non-anchored graph to a twig pattern plus the pattern-node
/// positions of the output variables (in output_ord order). Requires:
/// every variable carries exactly one label, every edge is Child or
/// Descendant (forward), and the edges form a single out-tree. Returns
/// false otherwise.
bool GraphToTwig(const QueryGraph& graph, cq::TwigPattern* out,
                 std::vector<int>* out_cols);

/// Converts a Boolean non-anchored graph to the equivalent positive
/// existential FO sentence. Requires arity 0 (no output variables).
std::unique_ptr<fo::Formula> GraphToFo(const QueryGraph& graph);

}  // namespace plan
}  // namespace treeq

#endif  // TREEQ_PLAN_IR_H_
