#include "cq/twig_join.h"

#include <algorithm>
#include <map>
#include <set>

#include "obs/obs.h"
#include "storage/structural_join.h"

namespace treeq {
namespace cq {

Status TwigPattern::Validate() const {
  if (nodes.empty()) return Status::InvalidArgument("empty twig pattern");
  if (nodes[0].parent != -1) {
    return Status::InvalidArgument("twig node 0 must be the root");
  }
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i].parent < 0 || nodes[i].parent >= static_cast<int>(i)) {
      return Status::InvalidArgument(
          "twig parents must precede their children");
    }
    if (nodes[i].edge != Axis::kChild && nodes[i].edge != Axis::kDescendant) {
      return Status::InvalidArgument(
          "twig edges must be child or descendant");
    }
  }
  return Status::OK();
}

std::vector<int> TwigPattern::Children(int node) const {
  std::vector<int> out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].parent == node) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> TwigPattern::Leaves() const {
  std::vector<char> has_child(nodes.size(), 0);
  for (const TwigPatternNode& n : nodes) {
    if (n.parent >= 0) has_child[n.parent] = 1;
  }
  std::vector<int> out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!has_child[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

bool TwigPattern::IsPath() const { return Leaves().size() == 1; }

ConjunctiveQuery TwigPattern::ToConjunctiveQuery() const {
  ConjunctiveQuery query;
  for (size_t i = 0; i < nodes.size(); ++i) {
    int v = query.AddVar("q" + std::to_string(i));
    query.AddLabelAtom(nodes[i].label, v);
    query.AddHeadVar(v);
  }
  for (size_t i = 1; i < nodes.size(); ++i) {
    query.AddAxisAtom(nodes[i].edge, nodes[i].parent, static_cast<int>(i));
  }
  return query;
}

std::string TwigPattern::ToString() const {
  std::string out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += " ";
    out += std::to_string(i) + ":" + nodes[i].label;
    if (nodes[i].parent >= 0) {
      out += (nodes[i].edge == Axis::kChild ? "/of:" : "//of:") +
             std::to_string(nodes[i].parent);
    }
  }
  return out;
}

namespace {

constexpr int kInf = INT32_MAX;

/// TwigStack state: per pattern node a document-ordered stream of matching
/// elements and a stack of (element, pointer into the parent's stack).
class TwigStackRunner {
 public:
  TwigStackRunner(const TwigPattern& pattern, const Document& doc,
                  TwigStats* stats, const ExecContext& exec)
      : pattern_(pattern), stats_(stats), exec_(exec) {
    const int m = static_cast<int>(pattern.nodes.size());
    children_.resize(m);
    for (int i = 1; i < m; ++i) {
      children_[pattern.nodes[i].parent].push_back(i);
    }
    // Per-pattern-node streams borrowed from the label index: no arena
    // scan and no sort per node.
    const LabelIndex& index = doc.label_index();
    streams_.reserve(m);
    for (const TwigPatternNode& node : pattern.nodes) {
      streams_.push_back(
          &index.Items(doc.tree().label_table().Lookup(node.label)));
    }
    cursor_.assign(m, 0);
    stacks_.resize(m);
  }

  Result<TupleSet> Run() {
    const int m = static_cast<int>(pattern_.nodes.size());
    for (;;) {
      // One charge per main-loop iteration == one stream advance; GetNext
      // skips are charged where they happen.
      TREEQ_RETURN_IF_ERROR(exec_.Charge(1));
      int q = GetNext(0);
      if (!abort_.ok()) return abort_;
      if (Exhausted(q)) {
        // getNext hit a branch whose stream is exhausted: no *new* matches
        // can involve that pattern node, but other root-to-leaf legs may
        // still owe path solutions to the final merge (they combine with
        // already-emitted paths of the dead leg). Continue with the
        // globally smallest remaining stream head, preserving the
        // document-order push discipline.
        q = -1;
        for (int i = 0; i < m; ++i) {
          if (!Exhausted(i) && (q == -1 || NextL(i) < NextL(q))) q = i;
        }
        if (q == -1) break;  // all streams consumed
      }
      if (q != 0) CleanStack(pattern_.nodes[q].parent, NextL(q));
      bool pushable = (q == 0) || !stacks_[pattern_.nodes[q].parent].empty();
      if (pushable) {
        CleanStack(q, NextL(q));
        Push(q);
        if (children_[q].empty()) {
          EmitPathSolutions(q);
          if (!abort_.ok()) return abort_;
          stacks_[q].pop_back();
        }
      }
      ++cursor_[q];  // advance the stream either way
    }
    TupleSet merged = MergePathSolutions();
    TREEQ_RETURN_IF_ERROR(abort_);
    return merged;
  }

 private:
  struct StackEntry {
    JoinItem item;
    int parent_top;  // index of the parent stack's top at push time (-1)
  };

  bool Exhausted(int q) const {
    return cursor_[q] >= streams_[q]->size();
  }
  const JoinItem& Head(int q) const { return (*streams_[q])[cursor_[q]]; }
  int NextL(int q) const { return Exhausted(q) ? kInf : Head(q).pre; }
  int NextEnd(int q) const { return Exhausted(q) ? kInf : Head(q).end; }

  // The getNext stream-alignment routine of [13].
  int GetNext(int q) {
    if (children_[q].empty()) return q;
    int nmin = -1, nmax = -1;
    for (int qi : children_[q]) {
      int ni = GetNext(qi);
      if (ni != qi) return ni;
      if (nmin == -1 || NextL(qi) < NextL(nmin)) nmin = qi;
      if (nmax == -1 || NextL(qi) > NextL(nmax)) nmax = qi;
    }
    // Skip q-elements whose subtree ends before the farthest child head:
    // they cannot cover all child branches.
    while (!Exhausted(q) && NextEnd(q) <= NextL(nmax)) {
      abort_ = exec_.Charge(1);
      if (!abort_.ok()) return q;
      TREEQ_OBS_INC("cq.twig.skipped_elements");
      ++cursor_[q];
    }
    if (NextL(q) < NextL(nmin)) return q;
    return nmin;
  }

  // Pops stack entries that are not ancestors of the element at pre rank
  // `pre`.
  void CleanStack(int q, int pre) {
    while (!stacks_[q].empty() && stacks_[q].back().item.end <= pre) {
      stacks_[q].pop_back();
    }
  }

  void Push(int q) {
    int parent_top = -1;
    if (q != 0) {
      parent_top =
          static_cast<int>(stacks_[pattern_.nodes[q].parent].size()) - 1;
    }
    stacks_[q].push_back(StackEntry{Head(q), parent_top});
    TREEQ_OBS_INC("cq.twig.stack_pushes");
    if (stats_ != nullptr) ++stats_->intermediate_results;
  }

  // Emits every root-to-leaf path solution ending at the just-pushed leaf
  // element (stack entries below a linked position are all ancestors, so no
  // backtracking is needed). Child-edges are filtered by depth.
  void EmitPathSolutions(int leaf) {
    // Pattern nodes on the path, leaf -> root.
    std::vector<int> path;
    for (int v = leaf; v != -1; v = pattern_.nodes[v].parent) {
      path.push_back(v);
    }
    std::vector<NodeId> partial(path.size(), kNullNode);
    EmitRec(path, 0, static_cast<int>(stacks_[leaf].size()) - 1, &partial);
  }

  void EmitRec(const std::vector<int>& path, size_t depth_in_path,
               int max_stack_index, std::vector<NodeId>* partial) {
    if (!abort_.ok()) return;
    const int q = path[depth_in_path];
    // The leaf position uses only the just-pushed element; ancestor
    // positions range over the stack up to the recorded parent link.
    const int min_stack_index = depth_in_path == 0 ? max_stack_index : 0;
    for (int s = max_stack_index; s >= min_stack_index; --s) {
      abort_ = exec_.Charge(1);
      if (!abort_.ok()) return;
      const StackEntry& entry = stacks_[q][s];
      if (depth_in_path > 0) {
        // entry must relate to the previously chosen (lower) element per
        // the pattern edge.
        const int child_q = path[depth_in_path - 1];
        const JoinItem& child_item = chosen_items_[child_q];
        if (pattern_.nodes[child_q].edge == Axis::kChild &&
            entry.item.depth != child_item.depth - 1) {
          continue;
        }
        // Ancestorship holds by the stack discipline; assert cheaply.
        if (!(entry.item.pre < child_item.pre &&
              child_item.pre < entry.item.end)) {
          continue;
        }
      }
      (*partial)[depth_in_path] = entry.item.node;
      chosen_items_[q] = entry.item;
      if (depth_in_path + 1 == path.size()) {
        // Record the solution keyed by the root-to-leaf pattern path.
        std::vector<NodeId> solution(path.size());
        for (size_t i = 0; i < path.size(); ++i) {
          solution[path.size() - 1 - i] = (*partial)[i];  // root first
        }
        path_solutions_[path.front()].push_back(std::move(solution));
        TREEQ_OBS_INC("cq.twig.path_solutions");
        if (stats_ != nullptr) ++stats_->path_solutions;
      } else {
        // path[depth+1] is q's pattern parent; its admissible stack range
        // is bounded by the link recorded when `entry` was pushed.
        EmitRec(path, depth_in_path + 1, entry.parent_top, partial);
      }
    }
  }

  TupleSet MergePathSolutions() {
    // Root-to-leaf pattern paths, one per leaf, in leaf order.
    std::vector<std::vector<int>> paths;
    for (int leaf : pattern_.Leaves()) {
      std::vector<int> path;
      for (int v = leaf; v != -1; v = pattern_.nodes[v].parent) {
        path.push_back(v);
      }
      std::reverse(path.begin(), path.end());
      paths.push_back(std::move(path));
    }
    TupleSet result;
    std::vector<NodeId> assignment(pattern_.nodes.size(), kNullNode);
    MergeRec(paths, 0, &assignment, &result);
    CanonicalizeTuples(&result);
    return result;
  }

  void MergeRec(const std::vector<std::vector<int>>& paths, size_t index,
                std::vector<NodeId>* assignment, TupleSet* result) {
    if (!abort_.ok()) return;
    if (index == paths.size()) {
      result->push_back(*assignment);
      return;
    }
    const std::vector<int>& path = paths[index];
    int leaf = path.back();
    for (const std::vector<NodeId>& solution : path_solutions_[leaf]) {
      abort_ = exec_.Charge(1);
      if (!abort_.ok()) return;
      bool compatible = true;
      for (size_t i = 0; i < path.size(); ++i) {
        NodeId assigned = (*assignment)[path[i]];
        if (assigned != kNullNode && assigned != solution[i]) {
          compatible = false;
          break;
        }
      }
      if (!compatible) continue;
      std::vector<int> touched;
      for (size_t i = 0; i < path.size(); ++i) {
        if ((*assignment)[path[i]] == kNullNode) {
          (*assignment)[path[i]] = solution[i];
          touched.push_back(path[i]);
        }
      }
      MergeRec(paths, index + 1, assignment, result);
      for (int v : touched) (*assignment)[v] = kNullNode;
    }
  }

  const TwigPattern& pattern_;
  TwigStats* stats_;
  const ExecContext& exec_;
  Status abort_;
  std::vector<std::vector<int>> children_;
  std::vector<const std::vector<JoinItem>*> streams_;
  std::vector<size_t> cursor_;
  std::vector<std::vector<StackEntry>> stacks_;
  std::map<int, JoinItem> chosen_items_;
  // Path solutions keyed by the leaf pattern node, root-first tuples.
  std::map<int, std::vector<std::vector<NodeId>>> path_solutions_;
};

}  // namespace

Result<TupleSet> TwigStackJoin(const TwigPattern& pattern,
                               const Document& doc, TwigStats* stats,
                               const ExecContext& exec) {
  TREEQ_RETURN_IF_ERROR(pattern.Validate());
  TREEQ_OBS_SPAN("cq.twig.twigstack");
  TwigStackRunner runner(pattern, doc, stats, exec);
  TREEQ_ASSIGN_OR_RETURN(TupleSet result, runner.Run());
  TREEQ_OBS_COUNT("cq.twig.output_tuples", result.size());
  return result;
}

Result<TupleSet> TwigByStructuralJoins(const TwigPattern& pattern,
                                       const Document& doc, TwigStats* stats,
                                       const ExecContext& exec) {
  TREEQ_RETURN_IF_ERROR(pattern.Validate());
  TREEQ_OBS_SPAN("cq.twig.structural_joins");
  const LabelIndex& index = doc.label_index();
  const int m = static_cast<int>(pattern.nodes.size());

  // Partial matches per pattern node, bottom-up: tuples over the pattern
  // subtree rooted there (variables in pattern-node order, kNullNode for
  // pattern nodes outside the subtree).
  std::vector<TupleSet> partial(m);
  for (int q = m - 1; q >= 0; --q) {
    LabelId label = doc.tree().label_table().Lookup(pattern.nodes[q].label);
    const std::vector<JoinItem>& self_items = index.Items(label);
    // Start with the node's own matches.
    TREEQ_RETURN_IF_ERROR(exec.Charge(1 + self_items.size()));
    TupleSet tuples;
    for (const JoinItem& item : self_items) {
      std::vector<NodeId> tuple(m, kNullNode);
      tuple[q] = item.node;
      tuples.push_back(std::move(tuple));
    }
    // Join in each child's partial result via a binary structural join.
    for (int c = q + 1; c < m; ++c) {
      if (pattern.nodes[c].parent != q) continue;
      // Structural join between q's matches and c's matches.
      std::vector<NodeId> c_nodes;
      for (const std::vector<NodeId>& t : partial[c]) c_nodes.push_back(t[c]);
      std::sort(c_nodes.begin(), c_nodes.end());
      c_nodes.erase(std::unique(c_nodes.begin(), c_nodes.end()),
                    c_nodes.end());
      std::vector<JoinItem> c_items = MakeJoinItems(doc.orders(), c_nodes);
      std::vector<std::pair<NodeId, NodeId>> edge_pairs = StackTreeJoin(
          self_items, c_items, pattern.nodes[c].edge == Axis::kChild);
      TREEQ_OBS_COUNT("cq.twig.candidate_pairs", edge_pairs.size());
      if (stats != nullptr) stats->intermediate_results += edge_pairs.size();
      TREEQ_RETURN_IF_ERROR(exec.Charge(1 + edge_pairs.size()));
      // Hash child partials by the c-node.
      std::map<NodeId, std::vector<const std::vector<NodeId>*>> by_c;
      for (const std::vector<NodeId>& t : partial[c]) {
        by_c[t[c]].push_back(&t);
      }
      std::map<NodeId, std::vector<NodeId>> c_partners;
      for (const auto& [a, d] : edge_pairs) c_partners[a].push_back(d);
      TupleSet joined;
      for (const std::vector<NodeId>& t : tuples) {
        auto it = c_partners.find(t[q]);
        if (it == c_partners.end()) continue;
        for (NodeId d : it->second) {
          for (const std::vector<NodeId>* ct : by_c[d]) {
            std::vector<NodeId> merged = t;
            for (int i = 0; i < m; ++i) {
              if ((*ct)[i] != kNullNode) merged[i] = (*ct)[i];
            }
            joined.push_back(std::move(merged));
          }
        }
      }
      tuples = std::move(joined);
      TREEQ_OBS_COUNT("cq.twig.intermediate_tuples", tuples.size());
      if (stats != nullptr) stats->intermediate_results += tuples.size();
      // The joined tuple set is the memory hazard of the binary-join plan:
      // charge it so skewed documents trip ResourceExhausted, not the OOM
      // killer.
      TREEQ_RETURN_IF_ERROR(exec.Charge(1 + tuples.size()));
    }
    partial[q] = std::move(tuples);
  }
  TupleSet result = std::move(partial[0]);
  CanonicalizeTuples(&result);
  return result;
}

}  // namespace cq
}  // namespace treeq
