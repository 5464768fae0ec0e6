#include "plan/ir.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace treeq {
namespace plan {

bool QueryGraph::IsConnected() const {
  if (vars.empty()) return true;
  std::vector<int> component(vars.size(), -1);
  std::vector<int> stack = {0};
  component[0] = 0;
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    for (const IrEdge& e : edges) {
      int other = -1;
      if (e.from == v) other = e.to;
      if (e.to == v) other = e.from;
      if (other >= 0 && component[other] < 0) {
        component[other] = 0;
        stack.push_back(other);
      }
    }
  }
  for (int c : component) {
    if (c < 0) return false;
  }
  return true;
}

std::string QueryGraph::Render() const {
  std::string out;
  if (anchored) out += "@root ";
  for (size_t i = 0; i < vars.size(); ++i) {
    if (i > 0) out += " ";
    out += "v" + std::to_string(i) + "{";
    for (size_t l = 0; l < vars[i].labels.size(); ++l) {
      if (l > 0) out += ",";
      out += vars[i].labels[l];
    }
    out += "}";
    if (vars[i].is_output()) {
      out += "=>" + std::to_string(vars[i].output_ord);
    }
  }
  for (const IrEdge& e : edges) {
    out += " v" + std::to_string(e.from) + " -" + AxisName(e.axis) + "-> v" +
           std::to_string(e.to);
  }
  return out;
}

std::string CanonicalHash::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf);
}

std::string LogicalPlan::Render() const {
  std::string out = "arity=" + std::to_string(arity);
  if (!structural()) {
    out += " opaque(" + opaque + ")";
    return out;
  }
  out += " branches=" + std::to_string(branches.size());
  for (size_t b = 0; b < branches.size(); ++b) {
    out += " | [" + std::to_string(b) + "] " + branches[b].Render();
  }
  return out;
}

bool GraphToCq(const QueryGraph& graph, cq::ConjunctiveQuery* out) {
  if (graph.anchored) return false;
  cq::ConjunctiveQuery q;
  for (size_t i = 0; i < graph.vars.size(); ++i) {
    q.AddVar("v" + std::to_string(i));
  }
  for (size_t i = 0; i < graph.vars.size(); ++i) {
    for (const std::string& label : graph.vars[i].labels) {
      q.AddLabelAtom(label, static_cast<int>(i));
    }
  }
  for (const IrEdge& e : graph.edges) {
    q.AddAxisAtom(e.axis, e.from, e.to);
  }
  // Head = output variables in output_ord order.
  std::map<int, int> head;  // ord -> var
  for (size_t i = 0; i < graph.vars.size(); ++i) {
    if (graph.vars[i].is_output()) {
      head[graph.vars[i].output_ord] = static_cast<int>(i);
    }
  }
  for (const auto& [ord, var] : head) q.AddHeadVar(var);
  *out = std::move(q);
  return true;
}

bool CqToGraph(const cq::ConjunctiveQuery& query, QueryGraph* out) {
  QueryGraph g;
  g.vars.resize(static_cast<size_t>(query.num_vars()));
  for (const cq::LabelAtom& atom : query.label_atoms()) {
    g.vars[static_cast<size_t>(atom.var)].labels.push_back(atom.label);
  }
  for (const cq::AxisAtom& atom : query.axis_atoms()) {
    g.edges.push_back(IrEdge{atom.var0, atom.var1, atom.axis});
  }
  for (size_t ord = 0; ord < query.head_vars().size(); ++ord) {
    IrVar& var = g.vars[static_cast<size_t>(query.head_vars()[ord])];
    if (var.is_output()) return false;  // duplicate head variable
    var.output_ord = static_cast<int>(ord);
  }
  *out = std::move(g);
  return true;
}

bool GraphToTwig(const QueryGraph& graph, cq::TwigPattern* out,
                 std::vector<int>* out_cols) {
  if (graph.anchored || graph.vars.empty()) return false;
  const size_t n = graph.vars.size();
  std::vector<int> parent(n, -1);
  std::vector<Axis> edge_axis(n, Axis::kDescendant);
  for (const IrEdge& e : graph.edges) {
    if (e.axis != Axis::kChild && e.axis != Axis::kDescendant) return false;
    if (parent[static_cast<size_t>(e.to)] != -1) return false;  // two parents
    parent[static_cast<size_t>(e.to)] = e.from;
    edge_axis[static_cast<size_t>(e.to)] = e.axis;
  }
  int root = -1;
  for (size_t i = 0; i < n; ++i) {
    if (graph.vars[i].labels.size() != 1) return false;
    if (parent[i] == -1) {
      if (root != -1) return false;  // forest, not a tree
      root = static_cast<int>(i);
    }
  }
  if (root == -1) return false;  // cyclic
  // BFS from the root assigns pattern positions (parents precede
  // children, root at 0, per TwigPattern's contract) and proves
  // reachability (an unreached var means a parent cycle off the tree).
  std::vector<int> order;  // graph var index, in pattern position order
  std::vector<int> position(n, -1);
  order.push_back(root);
  position[static_cast<size_t>(root)] = 0;
  for (size_t head = 0; head < order.size(); ++head) {
    for (size_t i = 0; i < n; ++i) {
      if (parent[i] == order[head] && position[i] == -1) {
        position[i] = static_cast<int>(order.size());
        order.push_back(static_cast<int>(i));
      }
    }
  }
  if (order.size() != n) return false;

  cq::TwigPattern pattern;
  pattern.nodes.resize(n);
  for (size_t pos = 0; pos < n; ++pos) {
    const size_t var = static_cast<size_t>(order[pos]);
    cq::TwigPatternNode& node = pattern.nodes[pos];
    node.label = graph.vars[var].labels[0];
    node.parent =
        parent[var] == -1 ? -1 : position[static_cast<size_t>(parent[var])];
    node.edge = edge_axis[var];
  }
  if (!pattern.Validate().ok()) return false;

  std::map<int, int> cols;  // output_ord -> pattern position
  for (size_t i = 0; i < n; ++i) {
    if (graph.vars[i].is_output()) {
      cols[graph.vars[i].output_ord] = position[i];
    }
  }
  out_cols->clear();
  for (const auto& [ord, pos] : cols) out_cols->push_back(pos);
  *out = std::move(pattern);
  return true;
}

std::unique_ptr<fo::Formula> GraphToFo(const QueryGraph& graph) {
  if (graph.anchored || graph.vars.empty()) return nullptr;
  for (const IrVar& var : graph.vars) {
    if (var.is_output()) return nullptr;
  }
  auto name = [](int v) { return "v" + std::to_string(v); };
  std::unique_ptr<fo::Formula> body;
  auto conjoin = [&body](std::unique_ptr<fo::Formula> atom) {
    body = body == nullptr
               ? std::move(atom)
               : fo::Formula::And(std::move(body), std::move(atom));
  };
  for (size_t i = 0; i < graph.vars.size(); ++i) {
    for (const std::string& label : graph.vars[i].labels) {
      conjoin(fo::Formula::Label(label, name(static_cast<int>(i))));
    }
  }
  for (const IrEdge& e : graph.edges) {
    conjoin(fo::Formula::AxisAtom(e.axis, name(e.from), name(e.to)));
  }
  if (body == nullptr) {
    // "exists v0 . true" has no rendering; Lab-free single-var graphs say
    // "the domain is nonempty", which Self(v0, v0) expresses.
    body = fo::Formula::AxisAtom(Axis::kSelf, name(0), name(0));
  }
  // Close existentially, innermost variable last.
  for (size_t i = graph.vars.size(); i-- > 0;) {
    body = fo::Formula::Exists(name(static_cast<int>(i)), std::move(body));
  }
  return body;
}

}  // namespace plan
}  // namespace treeq
