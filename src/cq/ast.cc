#include "cq/ast.h"

#include <algorithm>
#include <set>

namespace treeq {
namespace cq {

int ConjunctiveQuery::AddVar(std::string name) {
  var_names_.push_back(std::move(name));
  return num_vars() - 1;
}

void ConjunctiveQuery::AddLabelAtom(std::string label, int var) {
  label_atoms_.push_back(LabelAtom{std::move(label), var});
}

void ConjunctiveQuery::AddAxisAtom(Axis axis, int var0, int var1) {
  axis_atoms_.push_back(AxisAtom{axis, var0, var1});
}

std::vector<Axis> ConjunctiveQuery::AxesUsed() const {
  std::set<Axis> seen;
  std::vector<Axis> out;
  for (const AxisAtom& a : axis_atoms_) {
    if (seen.insert(a.axis).second) out.push_back(a.axis);
  }
  return out;
}

bool ConjunctiveQuery::IsConnected() const {
  if (num_vars() == 0) return true;
  std::vector<std::vector<int>> adj(num_vars());
  for (const AxisAtom& a : axis_atoms_) {
    adj[a.var0].push_back(a.var1);
    adj[a.var1].push_back(a.var0);
  }
  std::vector<char> seen(num_vars(), 0);
  std::vector<int> stack = {0};
  seen[0] = 1;
  int count = 1;
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    for (int w : adj[v]) {
      if (!seen[w]) {
        seen[w] = 1;
        ++count;
        stack.push_back(w);
      }
    }
  }
  return count == num_vars();
}

bool ConjunctiveQuery::IsTreeShaped() const {
  if (!IsConnected()) return false;
  std::set<std::pair<int, int>> edges;
  for (const AxisAtom& a : axis_atoms_) {
    if (a.var0 == a.var1) return false;
    edges.insert({std::min(a.var0, a.var1), std::max(a.var0, a.var1)});
    // Parallel atoms over the same variable pair are disallowed.
  }
  if (static_cast<int>(axis_atoms_.size()) != static_cast<int>(edges.size())) {
    return false;
  }
  return static_cast<int>(edges.size()) == num_vars() - 1;
}

Status ConjunctiveQuery::Validate() const {
  if (num_vars() == 0) {
    return Status::InvalidArgument("conjunctive query has no variables");
  }
  for (const LabelAtom& a : label_atoms_) {
    if (a.var < 0 || a.var >= num_vars()) {
      return Status::InvalidArgument("label atom variable out of range");
    }
  }
  for (const AxisAtom& a : axis_atoms_) {
    if (a.var0 < 0 || a.var0 >= num_vars() || a.var1 < 0 ||
        a.var1 >= num_vars()) {
      return Status::InvalidArgument("axis atom variable out of range");
    }
  }
  for (int h : head_vars_) {
    if (h < 0 || h >= num_vars()) {
      return Status::InvalidArgument("head variable out of range");
    }
  }
  return Status::OK();
}

std::string ConjunctiveQuery::ToString() const {
  std::string out = "Q(";
  for (size_t i = 0; i < head_vars_.size(); ++i) {
    if (i > 0) out += ", ";
    out += var_names_[head_vars_[i]];
  }
  out += ") :- ";
  bool first = true;
  for (const AxisAtom& a : axis_atoms_) {
    if (!first) out += ", ";
    out += std::string(AxisName(a.axis)) + "(" + var_names_[a.var0] + ", " +
           var_names_[a.var1] + ")";
    first = false;
  }
  for (const LabelAtom& a : label_atoms_) {
    if (!first) out += ", ";
    out += "Lab_" + a.label + "(" + var_names_[a.var] + ")";
    first = false;
  }
  if (first) out += "true";
  out += ".";
  return out;
}

void ConjunctiveQuery::NormalizeInverseAxes() {
  // Canonical representatives: the forward/base member of each inverse pair.
  for (AxisAtom& a : axis_atoms_) {
    switch (a.axis) {
      case Axis::kParent:
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf:
      case Axis::kPrevSibling:
      case Axis::kPrecedingSibling:
      case Axis::kPrecedingSiblingOrSelf:
      case Axis::kPreceding:
      case Axis::kFirstChildInv:
        a.axis = InverseAxis(a.axis);
        std::swap(a.var0, a.var1);
        break;
      default:
        break;
    }
  }
}

void CanonicalizeTuples(TupleSet* tuples) {
  std::sort(tuples->begin(), tuples->end());
  tuples->erase(std::unique(tuples->begin(), tuples->end()), tuples->end());
}

}  // namespace cq
}  // namespace treeq
