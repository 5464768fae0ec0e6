// Canonical identity of forest-shaped branches. plan::Canonicalize gives
// every branch that is a forest its Aho-Hopcroft-Ullman tree code, which
// is complete: two such branches hash alike exactly when they are
// isomorphic. The first test checks that against a brute-force
// isomorphism search over random small forests; the second checks that a
// highly symmetric query keeps one hash under any atom order and variable
// naming.

#include "plan/canonicalize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/plan.h"
#include "plan/ir.h"

namespace treeq {
namespace plan {
namespace {

// Every axis but Self (rule 2 would merge its endpoints), inverses
// included: the canonical form must see Parent(x, y) as Child(y, x).
const Axis kAxes[] = {
    Axis::kChild,          Axis::kParent,
    Axis::kDescendant,     Axis::kAncestor,
    Axis::kDescendantOrSelf, Axis::kAncestorOrSelf,
    Axis::kNextSibling,    Axis::kPrevSibling,
    Axis::kFollowingSibling, Axis::kPrecedingSibling,
    Axis::kFollowingSiblingOrSelf, Axis::kPrecedingSiblingOrSelf,
    Axis::kFollowing,      Axis::kPreceding,
    Axis::kFirstChild,     Axis::kFirstChildInv,
};

// Every variable carries a label from {a, b}, so no rewrite rule removes
// or merges variables: the canonical form is the input, renamed.
QueryGraph RandomForest(std::mt19937* rng, int max_axes) {
  auto pick = [rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(*rng);
  };
  QueryGraph g;
  const int n = 1 + pick(8);
  g.anchored = pick(4) == 0;
  g.vars.resize(static_cast<size_t>(n));
  const std::vector<std::string> label_sets[] = {{"a"}, {"b"}, {"a", "b"}};
  for (IrVar& var : g.vars) var.labels = label_sets[pick(3)];
  for (int v = 1; v < n; ++v) {
    if (pick(6) == 0) continue;  // starts a new component
    const int u = pick(v);
    const Axis axis = kAxes[pick(max_axes)];
    g.edges.push_back(pick(2) ? IrEdge{u, v, axis} : IrEdge{v, u, axis});
  }
  const int outputs = pick(std::min(n, 3) + 1);
  std::vector<int> vars(static_cast<size_t>(n));
  std::iota(vars.begin(), vars.end(), 0);
  std::shuffle(vars.begin(), vars.end(), *rng);
  for (int k = 0; k < outputs; ++k) {
    g.vars[static_cast<size_t>(vars[static_cast<size_t>(k)])].output_ord = k;
  }
  return g;
}

// A root with two or three copies of one small random tree, each copy's
// edge and the edge it hangs by (Child or Child+) in either direction:
// siblings whose subtrees tie or differ only in an edge's direction.
QueryGraph SymmetricForest(std::mt19937* rng) {
  auto pick = [rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(*rng);
  };
  const std::vector<std::string> label_sets[] = {{"a"}, {"b"}, {"a", "b"}};
  const int size = 1 + pick(2);
  std::vector<IrVar> proto(static_cast<size_t>(size));
  for (IrVar& var : proto) var.labels = label_sets[pick(3)];
  const Axis proto_axis = kAxes[pick(4)];
  QueryGraph g;
  g.vars.push_back(IrVar{label_sets[pick(3)], pick(2) - 1});
  for (int copy = 0, copies = 2 + pick(2); copy < copies; ++copy) {
    const int base = static_cast<int>(g.vars.size());
    g.vars.insert(g.vars.end(), proto.begin(), proto.end());
    if (size == 2) {
      g.edges.push_back(pick(2) ? IrEdge{base, base + 1, proto_axis}
                                : IrEdge{base + 1, base, proto_axis});
    }
    const Axis hang = pick(2) ? Axis::kChild : Axis::kDescendant;
    g.edges.push_back(pick(2) ? IrEdge{0, base, hang} : IrEdge{base, 0, hang});
  }
  return g;
}

// An isomorphic respelling: variables renamed (an anchored root stays
// variable 0), edges reordered, some written through their inverse axis,
// labels listed in another order.
QueryGraph Respell(const QueryGraph& g, std::mt19937* rng) {
  const size_t n = g.vars.size();
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin() + (g.anchored ? 1 : 0), perm.end(), *rng);
  QueryGraph out;
  out.anchored = g.anchored;
  out.vars.resize(n);
  for (size_t v = 0; v < n; ++v) {
    IrVar var = g.vars[v];
    std::shuffle(var.labels.begin(), var.labels.end(), *rng);
    out.vars[static_cast<size_t>(perm[v])] = var;
  }
  for (const IrEdge& e : g.edges) {
    IrEdge mapped{perm[static_cast<size_t>(e.from)],
                  perm[static_cast<size_t>(e.to)], e.axis};
    if ((*rng)() % 2) {
      std::swap(mapped.from, mapped.to);
      mapped.axis = InverseAxis(mapped.axis);
    }
    out.edges.push_back(mapped);
  }
  std::shuffle(out.edges.begin(), out.edges.end(), *rng);
  return out;
}

// A look-alike: one edge reversed, or two variables' label sets swapped.
// Both keep every cheap invariant (label and axis multisets); most such
// graphs are not isomorphic to the original.
QueryGraph Mutate(QueryGraph g, std::mt19937* rng) {
  if (!g.edges.empty() && (*rng)() % 2) {
    IrEdge& e = g.edges[(*rng)() % g.edges.size()];
    std::swap(e.from, e.to);
  } else {
    std::swap(g.vars[(*rng)() % g.vars.size()].labels,
              g.vars[(*rng)() % g.vars.size()].labels);
  }
  return g;
}

int Arity(const QueryGraph& g) {
  int arity = 0;
  for (const IrVar& var : g.vars) arity += var.is_output() ? 1 : 0;
  return arity;
}

CanonicalHash HashOf(const QueryGraph& g) {
  LogicalPlan plan;
  plan.arity = Arity(g);
  plan.branches.push_back(g);
  return Canonicalize(&plan);
}

// Brute force: is there a bijection of variables that keeps the anchor,
// every variable's label set and output column, and maps the edge set
// (each edge taken through its forward axis) onto the other's?
bool Isomorphic(const QueryGraph& a, const QueryGraph& b) {
  const size_t n = a.vars.size();
  if (b.vars.size() != n || a.anchored != b.anchored ||
      a.edges.size() != b.edges.size()) {
    return false;
  }
  auto forward = [](const QueryGraph& g) {
    std::vector<std::vector<int>> axis(g.vars.size(),
                                       std::vector<int>(g.vars.size(), -1));
    for (IrEdge e : g.edges) {
      if (!IsForwardAxis(e.axis)) {
        std::swap(e.from, e.to);
        e.axis = InverseAxis(e.axis);
      }
      axis[static_cast<size_t>(e.from)][static_cast<size_t>(e.to)] =
          static_cast<int>(e.axis);
    }
    return axis;
  };
  auto var_key = [](const IrVar& var) {
    return std::make_pair(
        std::set<std::string>(var.labels.begin(), var.labels.end()),
        var.output_ord);
  };
  const std::vector<std::vector<int>> fa = forward(a), fb = forward(b);
  std::vector<bool> var_match(n * n);
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = 0; v < n; ++v) {
      var_match[u * n + v] = var_key(a.vars[u]) == var_key(b.vars[v]);
    }
  }
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  do {
    if (a.anchored && perm[0] != 0) continue;
    bool same = true;
    for (size_t u = 0; u < n && same; ++u) {
      const size_t pu = static_cast<size_t>(perm[u]);
      same = var_match[u * n + pu];
      for (size_t v = 0; v < n && same; ++v) {
        same = fa[u][v] == fb[pu][static_cast<size_t>(perm[v])];
      }
    }
    if (same) return true;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

TEST(CanonicalizeTest, ForestHashesAgreeExactlyWithIsomorphism) {
  std::mt19937 rng(26);
  std::vector<QueryGraph> pool;
  for (int base = 0; base < 160; ++base) {
    // Symmetric forests tie siblings; a small axis alphabet makes
    // non-isomorphic look-alikes common; the full one covers every
    // inverse axis.
    QueryGraph g = base % 3 == 0   ? SymmetricForest(&rng)
                   : base % 3 == 1 ? RandomForest(&rng, 4)
                                   : RandomForest(&rng, 16);
    pool.push_back(Respell(g, &rng));
    pool.push_back(Respell(g, &rng));
    pool.push_back(Respell(Mutate(g, &rng), &rng));
    pool.push_back(std::move(g));
  }
  std::vector<CanonicalHash> hashes;
  for (const QueryGraph& g : pool) hashes.push_back(HashOf(g));

  // Cheap invariants first; the brute force runs on pairs that agree.
  auto invariant = [](const QueryGraph& g) {
    std::multiset<std::pair<std::set<std::string>, int>> vars;
    for (const IrVar& var : g.vars) {
      vars.emplace(std::set<std::string>(var.labels.begin(), var.labels.end()),
                   var.output_ord);
    }
    std::multiset<int> axes;
    for (const IrEdge& e : g.edges) {
      axes.insert(static_cast<int>(IsForwardAxis(e.axis) ? e.axis
                                                         : InverseAxis(e.axis)));
    }
    return std::make_tuple(g.anchored, vars, axes);
  };
  std::vector<decltype(invariant(pool[0]))> invariants;
  for (const QueryGraph& g : pool) invariants.push_back(invariant(g));
  int isomorphic = 0, look_alikes = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = i + 1; j < pool.size(); ++j) {
      const bool alike = invariants[i] == invariants[j];
      const bool iso = alike && Isomorphic(pool[i], pool[j]);
      if (iso && i / 4 != j / 4) ++isomorphic;
      if (alike && !iso) ++look_alikes;
      EXPECT_EQ(hashes[i] == hashes[j], iso)
          << pool[i].Render() << "\n  vs\n"
          << pool[j].Render();
    }
  }
  // The pool has teeth: isomorphic pairs from different draws, and
  // non-isomorphic pairs that no cheap invariant tells apart.
  std::printf("%d isomorphic pairs across draws, %d look-alikes\n",
              isomorphic, look_alikes);
  EXPECT_GT(isomorphic, 0);
  EXPECT_GT(look_alikes, 0);
}

// Lab_r(r) with k branches Child(r, a_i), Child(a_i, b_i), Child+(a_i,
// c_i), Lab_x(b_i): every atom order and variable naming is one query.
TEST(CanonicalizeTest, SymmetricStarHasOneHashPerSize) {
  std::mt19937 rng(8);
  for (int k = 2; k <= 8; ++k) {
    SCOPED_TRACE("k = " + std::to_string(k));
    std::set<std::string> hashes;
    for (int spelling = 0; spelling < 50; ++spelling) {
      std::vector<int> names(static_cast<size_t>(3 * k + 1));
      std::iota(names.begin(), names.end(), 0);
      std::shuffle(names.begin(), names.end(), rng);
      auto var = [&names](int id) {
        return "v" + std::to_string(names[static_cast<size_t>(id)]);
      };
      std::vector<std::string> atoms = {"Lab_r(" + var(0) + ")"};
      for (int i = 0; i < k; ++i) {
        const std::string a = var(1 + 3 * i), b = var(2 + 3 * i),
                          c = var(3 + 3 * i);
        atoms.push_back("Child(" + var(0) + ", " + a + ")");
        atoms.push_back("Child(" + a + ", " + b + ")");
        atoms.push_back("Child+(" + a + ", " + c + ")");
        atoms.push_back("Lab_x(" + b + ")");
      }
      std::shuffle(atoms.begin(), atoms.end(), rng);
      std::string text = "Q() :- ";
      for (size_t i = 0; i < atoms.size(); ++i) {
        text += (i > 0 ? ", " : "") + atoms[i];
      }
      text += ".";
      Result<engine::PlanPtr> plan =
          engine::Plan::Compile(Language::kCq, text);
      ASSERT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
      hashes.insert(plan.value()->canonical_hash().ToHex());
    }
    EXPECT_EQ(hashes.size(), 1u);
  }
}

}  // namespace
}  // namespace plan
}  // namespace treeq
