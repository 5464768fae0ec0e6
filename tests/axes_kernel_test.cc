// Randomized differential tests for the packed-word NodeSet and the
// word-parallel AxisImage kernels (tree/node_set.h, tree/axes.cc): every
// operation is checked against a naive std::set<NodeId> reference built
// from AxisHolds pair tests, over all 17 axes and three tree shapes
// (random attach, deep path, wide flat), including universes at and around
// multiples of 64 to exercise the tail-masking edge cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "tree/axes.h"
#include "tree/generator.h"
#include "tree/node_set.h"
#include "tree/orders.h"
#include "util/random.h"

namespace treeq {
namespace {

const Axis kAllAxes[] = {
    Axis::kSelf,
    Axis::kChild,
    Axis::kParent,
    Axis::kDescendant,
    Axis::kAncestor,
    Axis::kDescendantOrSelf,
    Axis::kAncestorOrSelf,
    Axis::kNextSibling,
    Axis::kPrevSibling,
    Axis::kFollowingSibling,
    Axis::kPrecedingSibling,
    Axis::kFollowingSiblingOrSelf,
    Axis::kPrecedingSiblingOrSelf,
    Axis::kFollowing,
    Axis::kPreceding,
    Axis::kFirstChild,
    Axis::kFirstChildInv,
};

// Universe sizes crossing the 64-bit word boundaries: exactly one word,
// one-short / one-past a word, multiple words, and a tiny universe.
const int kUniverseSizes[] = {1, 5, 63, 64, 65, 127, 128, 130, 192};

std::set<NodeId> ReferenceImage(const Tree& t, const TreeOrders& o, Axis axis,
                                const std::set<NodeId>& from) {
  std::set<NodeId> out;
  for (NodeId u : from) {
    for (NodeId v = 0; v < t.num_nodes(); ++v) {
      if (AxisHolds(t, o, axis, u, v)) out.insert(v);
    }
  }
  return out;
}

std::set<NodeId> RandomSubset(Rng* rng, int n, double density) {
  std::set<NodeId> s;
  for (NodeId v = 0; v < n; ++v) {
    if (rng->Bernoulli(density)) s.insert(v);
  }
  return s;
}

void CheckAllAxes(const Tree& t, Rng* rng, const char* shape) {
  const int n = t.num_nodes();
  const TreeOrders o = ComputeOrders(t);
  std::vector<std::set<NodeId>> inputs;
  inputs.push_back({});                           // empty
  inputs.push_back({t.root()});                   // singleton root
  inputs.push_back({static_cast<NodeId>(n - 1)});  // singleton last node
  std::set<NodeId> all;
  for (NodeId v = 0; v < n; ++v) all.insert(v);
  inputs.push_back(all);                          // full universe
  for (double density : {0.05, 0.3, 0.8}) {
    inputs.push_back(RandomSubset(rng, n, density));
  }
  for (Axis axis : kAllAxes) {
    for (const std::set<NodeId>& from_ref : inputs) {
      NodeSet from(n);
      for (NodeId v : from_ref) from.Insert(v);
      NodeSet got(n);
      AxisImage(t, o, axis, from, &got);
      const std::set<NodeId> want = ReferenceImage(t, o, axis, from_ref);
      NodeSet want_set(n);
      for (NodeId v : want) want_set.Insert(v);
      EXPECT_EQ(got.size(), static_cast<int>(want.size()))
          << shape << " n=" << n << " axis=" << AxisName(axis)
          << " |from|=" << from_ref.size();
      EXPECT_TRUE(got == want_set)
          << shape << " n=" << n << " axis=" << AxisName(axis)
          << " |from|=" << from_ref.size();
      // Cross-check member enumeration against the reference order.
      std::vector<NodeId> got_members = got.ToVector();
      EXPECT_TRUE(std::equal(got_members.begin(), got_members.end(),
                             want.begin(), want.end()))
          << shape << " n=" << n << " axis=" << AxisName(axis);
    }
  }
}

TEST(AxesKernelTest, DifferentialRandomTrees) {
  Rng rng(1234);
  for (int n : kUniverseSizes) {
    RandomTreeOptions opts;
    opts.num_nodes = n;
    opts.attach_window = 4;  // built out of document order; renumbered
    opts.alphabet = {"a", "b"};
    Tree t = RandomTree(&rng, opts);
    CheckAllAxes(t, &rng, "random");
  }
}

TEST(AxesKernelTest, DifferentialDeepPaths) {
  Rng rng(99);
  for (int n : kUniverseSizes) {
    Tree t = Chain(n, "a", "b");
    CheckAllAxes(t, &rng, "chain");
  }
}

TEST(AxesKernelTest, DifferentialWideFlat) {
  Rng rng(7);
  for (int n : kUniverseSizes) {
    if (n < 2) continue;  // Star needs a root plus at least one leaf
    Tree t = Star(n);
    CheckAllAxes(t, &rng, "star");
  }
}

TEST(NodeSetKernelTest, DifferentialSetAlgebra) {
  Rng rng(5678);
  for (int n : kUniverseSizes) {
    for (int round = 0; round < 8; ++round) {
      const std::set<NodeId> a_ref = RandomSubset(&rng, n, 0.4);
      const std::set<NodeId> b_ref = RandomSubset(&rng, n, 0.4);
      NodeSet a(n), b(n);
      for (NodeId v : a_ref) a.Insert(v);
      for (NodeId v : b_ref) b.Insert(v);

      auto check = [n](const NodeSet& got, const std::set<NodeId>& want,
                       const char* op) {
        EXPECT_EQ(got.size(), static_cast<int>(want.size()))
            << op << " n=" << n;
        std::vector<NodeId> want_vec(want.begin(), want.end());
        EXPECT_EQ(got.ToVector(), want_vec) << op << " n=" << n;
      };

      NodeSet u = a;
      u.UnionWith(b);
      std::set<NodeId> u_ref = a_ref;
      u_ref.insert(b_ref.begin(), b_ref.end());
      check(u, u_ref, "union");

      NodeSet i = a;
      i.IntersectWith(b);
      std::set<NodeId> i_ref;
      std::set_intersection(a_ref.begin(), a_ref.end(), b_ref.begin(),
                            b_ref.end(), std::inserter(i_ref, i_ref.end()));
      check(i, i_ref, "intersect");

      NodeSet d = a;
      d.AndNotWith(b);
      std::set<NodeId> d_ref;
      std::set_difference(a_ref.begin(), a_ref.end(), b_ref.begin(),
                          b_ref.end(), std::inserter(d_ref, d_ref.end()));
      check(d, d_ref, "andnot");

      NodeSet c = a;
      c.Complement();
      std::set<NodeId> c_ref;
      for (NodeId v = 0; v < n; ++v) {
        if (a_ref.count(v) == 0) c_ref.insert(v);
      }
      check(c, c_ref, "complement");
      // Tail masking: complementing twice restores the original bits.
      c.Complement();
      EXPECT_TRUE(c == a) << "double complement n=" << n;

      const int lo = static_cast<int>(rng.Uniform(0, n));
      const int hi = static_cast<int>(rng.Uniform(lo, n));
      NodeSet r = a;
      r.InsertRange(lo, hi);
      std::set<NodeId> r_ref = a_ref;
      for (NodeId v = lo; v < hi; ++v) r_ref.insert(v);
      check(r, r_ref, "insert_range");

      EXPECT_EQ(a.FirstMember(),
                a_ref.empty() ? kNullNode : *a_ref.begin());
      EXPECT_EQ(a.LastMember(),
                a_ref.empty() ? kNullNode : *a_ref.rbegin());
    }
  }
}

TEST(NodeSetKernelTest, ComplementKeepsTailBitsZero) {
  for (int n : kUniverseSizes) {
    NodeSet s(n);
    s.Complement();  // now the full universe
    EXPECT_EQ(s.size(), n);
    EXPECT_TRUE(s == NodeSet::All(n));
    // A full set's last member is in-universe, not a stray tail bit.
    EXPECT_EQ(s.LastMember(), n - 1);
    s.Complement();
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(s == NodeSet(n));
  }
}

TEST(NodeSetKernelTest, ForEachMemberWhileStopsEarly) {
  NodeSet s = NodeSet::FromVector(200, {3, 70, 140, 199});
  std::vector<NodeId> seen;
  s.ForEachMemberWhile([&](NodeId v) {
    seen.push_back(v);
    return v < 140;
  });
  EXPECT_EQ(seen, (std::vector<NodeId>{3, 70, 140}));
}

}  // namespace
}  // namespace treeq
