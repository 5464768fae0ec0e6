#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cq/twig_join.h"
#include "tree/generator.h"
#include "tree/document.h"
#include "tree/tree.h"
#include "tree/xml.h"
#include "util/random.h"
#include "xpath/ast.h"
#include "xpath/evaluator.h"
#include "xpath/naive_evaluator.h"

/// \file differential_test.cc
/// Cross-engine differential harness: random documents x random queries,
/// evaluated by independent engines that must agree node-for-node.
///
///  - Core XPath: the naive per-context-node interpreter (the semantic
///    equations, trusted as the executable spec) vs the set-at-a-time
///    evaluator (the optimized implementation under test).
///  - Twig patterns: TwigStackJoin vs TwigByStructuralJoins (full tuple
///    sets), and each result column vs the equivalent Core XPath query.
///
/// Document sizes straddle the NodeSet 64-bit word boundaries (63/64/65,
/// 127/128/129) because that is where the packed-bitmap kernels have
/// off-by-one hazards. Every trial is seeded, so a failure reproduces from
/// its seed alone; on mismatch a greedy minimizer shrinks the document and
/// query before printing them.

namespace treeq {
namespace {

const std::vector<std::string> kAlphabet = {"a", "b", "c"};

// ---------------------------------------------------------------------------
// Random documents: chain / star / random shapes at word-boundary sizes.

Tree RandomDocument(Rng* rng, int max_nodes) {
  static const int kSizes[] = {3, 7, 31, 63, 64, 65, 96, 127, 128, 129};
  std::vector<int> sizes;
  for (int s : kSizes) {
    if (s <= max_nodes) sizes.push_back(s);
  }
  int n = sizes[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(sizes.size()) - 1))];
  switch (rng->Uniform(0, 3)) {
    case 0:
      return Chain(n, "a", "b");
    case 1:
      return Star(n, "a", rng->Bernoulli(0.5) ? "a" : "b");
    default: {
      RandomTreeOptions opt;
      opt.num_nodes = n;
      opt.attach_window = static_cast<int>(rng->Uniform(1, 8));
      opt.alphabet = kAlphabet;
      opt.second_label_prob = 0.2;
      return RandomTree(rng, opt);
    }
  }
}

// ---------------------------------------------------------------------------
// Random Core XPath queries. Depth/length are kept small so the naive
// (exponential) interpreter stays fast enough for hundreds of trials.

std::string RandomLabel(Rng* rng) {
  return kAlphabet[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(kAlphabet.size()) - 1))];
}

Axis RandomAxis(Rng* rng) {
  static const Axis kAxes[] = {
      Axis::kSelf,           Axis::kChild,
      Axis::kParent,         Axis::kDescendant,
      Axis::kAncestor,       Axis::kDescendantOrSelf,
      Axis::kAncestorOrSelf, Axis::kNextSibling,
      Axis::kPrevSibling,    Axis::kFollowingSibling,
      Axis::kPrecedingSibling, Axis::kFollowing,
      Axis::kPreceding,      Axis::kFirstChild,
  };
  return kAxes[rng->Uniform(0, std::size(kAxes) - 1)];
}

std::unique_ptr<xpath::PathExpr> RandomPath(Rng* rng, int max_steps,
                                            int qualifier_depth);

std::unique_ptr<xpath::Qualifier> RandomQualifier(Rng* rng, int depth) {
  double roll = rng->UniformReal();
  if (depth <= 0 || roll < 0.45) {
    return xpath::Qualifier::MakeLabel(RandomLabel(rng));
  }
  if (roll < 0.70) {
    return xpath::Qualifier::MakePath(RandomPath(rng, 2, depth - 1));
  }
  if (roll < 0.80) {
    return xpath::Qualifier::MakeNot(RandomQualifier(rng, depth - 1));
  }
  if (roll < 0.90) {
    return xpath::Qualifier::MakeAnd(RandomQualifier(rng, depth - 1),
                                     RandomQualifier(rng, depth - 1));
  }
  return xpath::Qualifier::MakeOr(RandomQualifier(rng, depth - 1),
                                  RandomQualifier(rng, depth - 1));
}

std::unique_ptr<xpath::PathExpr> RandomStep(Rng* rng, int qualifier_depth) {
  auto step = xpath::PathExpr::MakeStep(RandomAxis(rng));
  if (rng->Bernoulli(0.7)) {
    step->qualifiers.push_back(RandomQualifier(rng, qualifier_depth));
  }
  return step;
}

std::unique_ptr<xpath::PathExpr> RandomPath(Rng* rng, int max_steps,
                                            int qualifier_depth) {
  int steps = static_cast<int>(rng->Uniform(1, max_steps));
  std::unique_ptr<xpath::PathExpr> path = RandomStep(rng, qualifier_depth);
  for (int i = 1; i < steps; ++i) {
    path = xpath::PathExpr::MakeSeq(std::move(path),
                                    RandomStep(rng, qualifier_depth));
  }
  if (qualifier_depth > 0 && rng->Bernoulli(0.15)) {
    path = xpath::PathExpr::MakeUnion(std::move(path),
                                      RandomPath(rng, 2, qualifier_depth - 1));
  }
  return path;
}

// ---------------------------------------------------------------------------
// The two engines under comparison for Core XPath. `ok` is false when the
// naive interpreter blew its safety budget (never expected at these sizes).

struct XPathComparison {
  bool ok = false;
  bool agree = false;
  NodeSet set_at_a_time;
  NodeSet naive;
};

// Both run on a Document over a copy of `tree`, so the minimizer can keep
// shrinking the tree itself.
XPathComparison CompareXPath(const Tree& tree, const xpath::PathExpr& path) {
  const Document doc(tree);
  const ExecContext budget = ExecContext::WithVisitBudget(50'000'000);
  XPathComparison cmp;
  cmp.set_at_a_time = xpath::EvalQueryFromRoot(doc, path).value();
  Result<NodeSet> naive =
      xpath::NaiveEvalPath(doc, path, tree.root(), /*stats=*/nullptr, budget);
  if (!naive.ok()) return cmp;
  cmp.ok = true;
  cmp.naive = std::move(naive).value();
  cmp.agree = cmp.set_at_a_time == cmp.naive;
  return cmp;
}

bool Mismatches(const Tree& tree, const xpath::PathExpr& path) {
  XPathComparison cmp = CompareXPath(tree, path);
  return cmp.ok && !cmp.agree;
}

// ---------------------------------------------------------------------------
// Greedy minimizer. Query shrinks: take a branch of a Seq/Union, drop a
// qualifier, recurse into subexpressions. Tree shrinks: delete one leaf.

void CollectPathShrinks(const xpath::PathExpr& p,
                        std::vector<std::unique_ptr<xpath::PathExpr>>* out) {
  using PE = xpath::PathExpr;
  if (p.kind == PE::Kind::kSeq || p.kind == PE::Kind::kUnion) {
    out->push_back(p.left->Clone());
    out->push_back(p.right->Clone());
    std::vector<std::unique_ptr<PE>> left_shrinks;
    CollectPathShrinks(*p.left, &left_shrinks);
    for (auto& l : left_shrinks) {
      auto clone = p.Clone();
      clone->left = std::move(l);
      out->push_back(std::move(clone));
    }
    std::vector<std::unique_ptr<PE>> right_shrinks;
    CollectPathShrinks(*p.right, &right_shrinks);
    for (auto& r : right_shrinks) {
      auto clone = p.Clone();
      clone->right = std::move(r);
      out->push_back(std::move(clone));
    }
    return;
  }
  for (size_t i = 0; i < p.qualifiers.size(); ++i) {
    auto clone = p.Clone();
    clone->qualifiers.erase(clone->qualifiers.begin() +
                            static_cast<ptrdiff_t>(i));
    out->push_back(std::move(clone));
  }
}

// Rebuilds `tree` without leaf `victim` (victim must be a non-root leaf).
Tree WithoutLeaf(const Tree& tree, NodeId victim) {
  TreeBuilder builder;
  std::vector<std::pair<NodeId, bool>> stack;  // (node, children_done)
  stack.emplace_back(tree.root(), false);
  while (!stack.empty()) {
    auto [n, done] = stack.back();
    stack.pop_back();
    if (done) {
      builder.EndNode();
      continue;
    }
    if (n == victim) continue;
    std::vector<std::string> names;
    for (LabelId l : tree.labels(n)) {
      names.push_back(tree.label_table().Name(l));
    }
    builder.BeginNode(names);
    stack.emplace_back(n, true);
    // Children pushed in reverse so they pop (and rebuild) in order.
    std::vector<NodeId> kids;
    for (NodeId c = tree.first_child(n); c != kNullNode;
         c = tree.next_sibling(c)) {
      kids.push_back(c);
    }
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.emplace_back(*it, false);
    }
  }
  Result<Tree> rebuilt = builder.Finish();
  TREEQ_CHECK(rebuilt.ok());
  return std::move(rebuilt).value();
}

// Shrinks the tree as far as possible while `mismatch(tree)` holds.
template <typename Predicate>
Tree ShrinkTree(Tree tree, const Predicate& mismatch) {
  bool progressed = true;
  while (progressed && tree.num_nodes() > 1) {
    progressed = false;
    for (NodeId n = tree.num_nodes() - 1; n > 0; --n) {
      if (!tree.IsLeaf(n)) continue;
      Tree candidate = WithoutLeaf(tree, n);
      if (mismatch(candidate)) {
        tree = std::move(candidate);
        progressed = true;
        break;
      }
    }
  }
  return tree;
}

// Returns the smallest (tree, query) pair still mismatching; reports it.
void ReportMinimizedXPath(Tree tree, std::unique_ptr<xpath::PathExpr> path,
                          uint64_t seed) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    std::vector<std::unique_ptr<xpath::PathExpr>> shrinks;
    CollectPathShrinks(*path, &shrinks);
    for (auto& candidate : shrinks) {
      if (Mismatches(tree, *candidate)) {
        path = std::move(candidate);
        progressed = true;
        break;
      }
    }
    Tree smaller = ShrinkTree(
        std::move(tree), [&](const Tree& t) { return Mismatches(t, *path); });
    if (smaller.num_nodes() < tree.num_nodes()) progressed = true;
    tree = std::move(smaller);
  }
  XPathComparison cmp = CompareXPath(tree, *path);
  std::string naive_nodes, set_nodes;
  cmp.naive.ForEachMember(
      [&](NodeId n) { naive_nodes += std::to_string(n) + " "; });
  cmp.set_at_a_time.ForEachMember(
      [&](NodeId n) { set_nodes += std::to_string(n) + " "; });
  ADD_FAILURE() << "seed " << seed << ": engines disagree on minimized case\n"
                << "  document: " << WriteXml(tree) << "\n"
                << "  query:    " << xpath::ToString(*path) << "\n"
                << "  naive:         { " << naive_nodes << "}\n"
                << "  set-at-a-time: { " << set_nodes << "}";
}

TEST(DifferentialTest, NaiveVsSetAtATime) {
  const int kTrials = 220;
  int compared = 0;
  for (uint64_t seed = 0; seed < kTrials; ++seed) {
    Rng rng(seed);
    Tree tree = RandomDocument(&rng, /*max_nodes=*/65);
    std::unique_ptr<xpath::PathExpr> path =
        RandomPath(&rng, /*max_steps=*/3, /*qualifier_depth=*/2);
    XPathComparison cmp = CompareXPath(tree, *path);
    ASSERT_TRUE(cmp.ok) << "seed " << seed
                        << ": naive interpreter blew its safety budget on "
                        << xpath::ToString(*path);
    ++compared;
    if (!cmp.agree) {
      ReportMinimizedXPath(std::move(tree), std::move(path), seed);
      return;  // one minimized counterexample is enough output
    }
  }
  EXPECT_EQ(compared, kTrials);
}

// ---------------------------------------------------------------------------
// Twig patterns: the two join algorithms must produce identical tuple sets,
// and each column must equal the corresponding Core XPath query.

cq::TwigPattern RandomTwig(Rng* rng, int max_nodes) {
  cq::TwigPattern pattern;
  int n = static_cast<int>(rng->Uniform(1, max_nodes));
  for (int i = 0; i < n; ++i) {
    cq::TwigPatternNode node;
    node.label = RandomLabel(rng);
    if (i > 0) {
      node.parent = static_cast<int>(rng->Uniform(0, i - 1));
      node.edge = rng->Bernoulli(0.5) ? Axis::kChild : Axis::kDescendant;
    }
    pattern.nodes.push_back(std::move(node));
  }
  return pattern;
}

// Path matching the twig subtree rooted at pattern node `c`, for use as an
// existential qualifier on `c`'s parent match.
std::unique_ptr<xpath::PathExpr> TwigBranchPath(const cq::TwigPattern& pattern,
                                                int c) {
  auto step = xpath::PathExpr::MakeStep(pattern.nodes[c].edge);
  auto q = xpath::Qualifier::MakeLabel(pattern.nodes[c].label);
  for (int g : pattern.Children(c)) {
    q = xpath::Qualifier::MakeAnd(
        std::move(q), xpath::Qualifier::MakePath(TwigBranchPath(pattern, g)));
  }
  step->qualifiers.push_back(std::move(q));
  return step;
}

// The Core XPath query selecting exactly the nodes pattern node `result`
// matches: descend to a twig-root match, then walk the spine down to
// `result`, asserting every off-spine branch as a qualifier.
std::unique_ptr<xpath::PathExpr> TwigColumnXPath(const cq::TwigPattern& pattern,
                                                 int result) {
  std::vector<int> spine;
  for (int v = result; v != -1; v = pattern.nodes[v].parent) {
    spine.push_back(v);
  }
  std::reverse(spine.begin(), spine.end());
  std::unique_ptr<xpath::PathExpr> path;
  for (size_t i = 0; i < spine.size(); ++i) {
    int v = spine[i];
    Axis axis =
        (i == 0) ? Axis::kDescendantOrSelf : pattern.nodes[v].edge;
    auto step = xpath::PathExpr::MakeStep(axis);
    auto q = xpath::Qualifier::MakeLabel(pattern.nodes[v].label);
    int on_spine_child = (i + 1 < spine.size()) ? spine[i + 1] : -1;
    for (int c : pattern.Children(v)) {
      if (c == on_spine_child) continue;
      q = xpath::Qualifier::MakeAnd(
          std::move(q), xpath::Qualifier::MakePath(TwigBranchPath(pattern, c)));
    }
    step->qualifiers.push_back(std::move(q));
    path = (path == nullptr)
               ? std::move(step)
               : xpath::PathExpr::MakeSeq(std::move(path), std::move(step));
  }
  return path;
}

cq::TupleSet Sorted(cq::TupleSet tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

TEST(DifferentialTest, TwigJoinsVsEachOtherAndXPath) {
  const int kTrials = 100;
  for (uint64_t seed = 0; seed < kTrials; ++seed) {
    Rng rng(1000 + seed);
    Tree tree = RandomDocument(&rng, /*max_nodes=*/129);
    const Document doc(tree);
    cq::TwigPattern pattern = RandomTwig(&rng, /*max_nodes=*/4);
    ASSERT_TRUE(pattern.Validate().ok()) << pattern.ToString();

    Result<cq::TupleSet> stack = cq::TwigStackJoin(pattern, doc);
    Result<cq::TupleSet> joins = cq::TwigByStructuralJoins(pattern, doc);
    ASSERT_TRUE(stack.ok()) << stack.status().ToString();
    ASSERT_TRUE(joins.ok()) << joins.status().ToString();
    cq::TupleSet stack_tuples = Sorted(std::move(stack).value());
    EXPECT_EQ(stack_tuples, Sorted(std::move(joins).value()))
        << "seed " << 1000 + seed << ": TwigStack vs structural joins on "
        << pattern.ToString() << "\n  document: " << WriteXml(tree);

    for (int col = 0; col < static_cast<int>(pattern.nodes.size()); ++col) {
      NodeSet projected(tree.num_nodes());
      for (const std::vector<NodeId>& tuple : stack_tuples) {
        projected.Insert(tuple[static_cast<size_t>(col)]);
      }
      std::unique_ptr<xpath::PathExpr> column_query =
          TwigColumnXPath(pattern, col);
      NodeSet via_xpath =
          xpath::EvalQueryFromRoot(doc, *column_query).value();
      if (projected == via_xpath) continue;
      // Minimize the document before reporting (query stays fixed — the
      // twig is already tiny).
      Tree shrunk = ShrinkTree(std::move(tree), [&](const Tree& t) {
        const Document d(t);
        Result<cq::TupleSet> ts = cq::TwigStackJoin(pattern, d);
        if (!ts.ok()) return false;
        NodeSet p(t.num_nodes());
        for (const std::vector<NodeId>& tuple : ts.value()) {
          p.Insert(tuple[static_cast<size_t>(col)]);
        }
        return !(p == xpath::EvalQueryFromRoot(d, *column_query).value());
      });
      ADD_FAILURE() << "seed " << 1000 + seed << ": twig column " << col
                    << " disagrees with XPath on minimized case\n"
                    << "  pattern:  " << pattern.ToString() << "\n"
                    << "  query:    " << xpath::ToString(*column_query) << "\n"
                    << "  document: " << WriteXml(shrunk);
      return;
    }
  }
}

}  // namespace
}  // namespace treeq
