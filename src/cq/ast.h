#ifndef TREEQ_CQ_AST_H_
#define TREEQ_CQ_AST_H_

#include <string>
#include <vector>

#include "tree/axes.h"
#include "tree/tree.h"
#include "util/status.h"

/// \file ast.h
/// Conjunctive queries over trees (Sections 4-6): conjunctions of unary
/// label atoms Lab_a(x) and binary axis atoms R(x, y), with a tuple of head
/// (output) variables — empty for Boolean queries.

namespace treeq {
namespace cq {

/// Lab_label(var).
struct LabelAtom {
  std::string label;
  int var = -1;
};

/// axis(var0, var1).
struct AxisAtom {
  Axis axis = Axis::kSelf;
  int var0 = -1;
  int var1 = -1;
};

/// A conjunctive query. Variables are dense indices with display names.
class ConjunctiveQuery {
 public:
  /// Adds a variable and returns its index.
  int AddVar(std::string name);

  void AddLabelAtom(std::string label, int var);
  void AddAxisAtom(Axis axis, int var0, int var1);
  void AddHeadVar(int var) { head_vars_.push_back(var); }

  int num_vars() const { return static_cast<int>(var_names_.size()); }
  const std::vector<std::string>& var_names() const { return var_names_; }
  const std::vector<LabelAtom>& label_atoms() const { return label_atoms_; }
  const std::vector<AxisAtom>& axis_atoms() const { return axis_atoms_; }
  const std::vector<int>& head_vars() const { return head_vars_; }
  bool IsBoolean() const { return head_vars_.empty(); }

  /// Size |Q| = number of atoms plus variables.
  int Size() const {
    return num_vars() + static_cast<int>(label_atoms_.size()) +
           static_cast<int>(axis_atoms_.size());
  }

  /// All distinct axes used (after this, signatures can be classified per
  /// Theorem 6.8).
  std::vector<Axis> AxesUsed() const;

  /// Structural checks on the query graph (variables as vertices, binary
  /// atoms as edges):
  ///  - IsConnected: one component (isolated variables count as components).
  ///  - IsTreeShaped: connected, acyclic, no parallel edges, no self-loop
  ///    axis atoms. Tree-shaped queries are exactly the ones the full
  ///    reducer (yannakakis.h) and the Figure 6 enumerator accept.
  bool IsConnected() const;
  bool IsTreeShaped() const;

  /// Variable indices in range, head vars valid.
  Status Validate() const;

  /// "Q(x, y) :- Child(x, y), Lab_a(x)." rendering (reparseable).
  std::string ToString() const;

  /// Rewrites every inverse axis atom R^-1(x, y) as R(y, x), so downstream
  /// code (rewriting, dichotomy) only sees canonical forward/base axes.
  void NormalizeInverseAxes();

 private:
  std::vector<std::string> var_names_;
  std::vector<LabelAtom> label_atoms_;
  std::vector<AxisAtom> axis_atoms_;
  std::vector<int> head_vars_;
};

/// A set of result tuples (arity = head_vars size; Boolean queries use
/// 0-ary tuples: nonempty result == true).
using TupleSet = std::vector<std::vector<NodeId>>;

/// Sorts and deduplicates a tuple set (canonical form for comparisons).
void CanonicalizeTuples(TupleSet* tuples);

}  // namespace cq
}  // namespace treeq

#endif  // TREEQ_CQ_AST_H_
