#ifndef TREEQ_PLAN_CANONICALIZE_H_
#define TREEQ_PLAN_CANONICALIZE_H_

#include "plan/ir.h"

/// \file canonicalize.h
/// Normalizes a logical plan to a canonical form and a stable 128-bit
/// hash, so semantically identical queries — arriving in different
/// languages, dialects, whitespace, or variable orders — share one
/// identity. PlanCache and ResultCache key on the hash.
///
/// Per-branch rewrite rules (each meaning-preserving over all trees):
///   1. inverse axes flip to their forward member (Parent(x,y) ->
///      Child(y,x), ...), so orientation is canonical;
///   2. Self self-loops drop; Self edges merge their endpoints (variable
///      equality) unless both endpoints are distinct output columns;
///   3. unlabeled, non-output, non-root variables with one edge in and
///      one edge out, the two composable, collapse into one edge
///      (Child* . Child = Child+, Child* . Child* = Child*, ...);
///   4. unlabeled, non-output, non-root variables of degree <= 1 whose
///      only edge is Child* (either direction) are vacuous (exists v .
///      Child*(v, x) always holds) and drop; isolated ones drop too;
///   5. a root anchor whose variable is unlabeled, non-output, and only
///      the source of Child+/Child* edges demotes to a plain variable
///      (every node is a Child* of the root; a Child+ of the root is any
///      non-root node, exactly the nodes with some proper ancestor);
///   6. labels sort + dedupe per variable; duplicate edges dedupe;
///   7. Boolean non-anchored branches that are connected but not
///      tree-shaped normalize through the Theorem 5.1 rewriting
///      (cq/rewrite.h) into a union of acyclic branches, capped;
///   8. a branch that is a forest (no cycle, parallel edge or self-loop)
///      reorders its variables by the Aho-Hopcroft-Ullman tree code: each
///      component is rooted at the anchor, else at its lowest output
///      column, else at its center (of two centers, the one with the
///      smaller code); a variable's code names its labels, output column,
///      anchor flag and sorted multiset of (axis, edge direction, child
///      code), integers named level by level; components sort by code and
///      the variable order is the code's preorder, so an anchored root
///      stays variable 0. Any other branch keeps its normalized order.
///      Branch encodings sort + dedupe.
///
/// Rules 1-6 and 8 run in O(|Q| log |Q|). The hash is FNV-1a-128 over the
/// canonical encoding (or over the language-tagged opaque rendering). For
/// forests the tree code is complete: two branches share an encoding
/// exactly when they are isomorphic. The encoding spells out the whole
/// graph, so equal encodings are equal graphs and a share is never false
/// beyond 128-bit collision odds; a non-forest branch spelled in another
/// variable order may only miss a share.

namespace treeq {
namespace plan {

/// Rewrites `plan` in place to canonical form and returns its hash.
CanonicalHash Canonicalize(LogicalPlan* plan);

}  // namespace plan
}  // namespace treeq

#endif  // TREEQ_PLAN_CANONICALIZE_H_
