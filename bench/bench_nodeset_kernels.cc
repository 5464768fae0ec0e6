// NodeSet kernel microbenchmark: the packed 64-bit-word NodeSet and the
// word-parallel AxisImage kernels (tree/node_set.h, tree/axes.cc) against
// the scalar byte-per-node baselines they replaced (reproduced verbatim
// below). Headline numbers at n = 10^6: union/intersect must be >= 5x,
// descendant/ancestor AxisImage >= 2x — see EXPERIMENTS.md for the repro
// commands and ISSUE/acceptance context.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "tree/axes.h"
#include "util/status.h"
#include "tree/generator.h"
#include "tree/node_set.h"
#include "tree/orders.h"
#include "util/random.h"

namespace {

using treeq::NodeId;
using treeq::NodeSet;
using treeq::Tree;
using treeq::TreeOrders;

// ---------------------------------------------------------------------------
// Scalar baseline: the seed's byte-per-node NodeSet and its O(n)-probe
// kernels, kept here so the speedup stays measurable against the real
// predecessor rather than a strawman.

class ScalarNodeSet {
 public:
  explicit ScalarNodeSet(int universe) : bits_(universe, 0) {}

  int universe() const { return static_cast<int>(bits_.size()); }
  int size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool Contains(NodeId n) const { return bits_[n] != 0; }

  void Insert(NodeId n) {
    if (!bits_[n]) {
      bits_[n] = 1;
      ++count_;
    }
  }

  void UnionWith(const ScalarNodeSet& other) {
    for (int i = 0; i < universe(); ++i) {
      if (other.bits_[i]) Insert(i);
    }
  }
  void IntersectWith(const ScalarNodeSet& other) {
    for (int i = 0; i < universe(); ++i) {
      if (bits_[i] && !other.bits_[i]) {
        bits_[i] = 0;
        --count_;
      }
    }
  }
  void Complement() {
    for (int i = 0; i < universe(); ++i) bits_[i] = bits_[i] ? 0 : 1;
    count_ = universe() - count_;
  }

 private:
  std::vector<char> bits_;
  int count_ = 0;
};

// Seed DescendantImage: one pre-order (increasing id) pass probing every
// node.
void ScalarDescendantImage(const Tree& tree, const TreeOrders& orders,
                           const ScalarNodeSet& from, ScalarNodeSet* to) {
  for (NodeId v = 0; v < orders.num_nodes(); ++v) {
    NodeId p = tree.parent(v);
    if (p != treeq::kNullNode && (from.Contains(p) || to->Contains(p))) {
      to->Insert(v);
    }
  }
}

// Seed AncestorImage: one children-before-parent pass (decreasing id, as
// parent(v) < v) with per-node child-chain walks.
void ScalarAncestorImage(const Tree& tree, const TreeOrders& orders,
                         const ScalarNodeSet& from, ScalarNodeSet* to) {
  std::vector<char> has(orders.num_nodes(), 0);
  for (NodeId v = orders.num_nodes() - 1; v >= 0; --v) {
    char h = from.Contains(v) ? 1 : 0;
    char child_has = 0;
    for (NodeId c = tree.first_child(v); c != treeq::kNullNode;
         c = tree.next_sibling(c)) {
      child_has |= has[c];
    }
    has[v] = h | child_has;
    if (child_has) to->Insert(v);
  }
}

// ---------------------------------------------------------------------------

constexpr int kHeadlineNodes = 1'000'000;

// A ~10^6-node tree: depth 10 / fanout 4 => (4^11 - 1) / 3 = 1,398,101
// nodes >= 10^6, labeled a, b, c by depth.
Tree MakeBigTree() { return treeq::BalancedTree(10, 4, {"a", "b", "c"}); }

std::vector<NodeId> RandomMembers(treeq::Rng* rng, int n, double density) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < n; ++v) {
    if (rng->Bernoulli(density)) out.push_back(v);
  }
  return out;
}

uint64_t MedianNs(std::vector<uint64_t>* samples) {
  std::sort(samples->begin(), samples->end());
  return (*samples)[samples->size() / 2];
}

template <typename Fn>
uint64_t TimeMedianNs(int reps, Fn&& fn) {
  std::vector<uint64_t> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    samples.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  return MedianNs(&samples);
}

// ---------------------------------------------------------------------------
// google-benchmark mode

void BM_ScalarUnion(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  treeq::Rng rng(1);
  ScalarNodeSet a(n), b(n);
  for (NodeId v : RandomMembers(&rng, n, 0.5)) a.Insert(v);
  for (NodeId v : RandomMembers(&rng, n, 0.5)) b.Insert(v);
  for (auto _ : state) {
    ScalarNodeSet u = a;
    u.UnionWith(b);
    benchmark::DoNotOptimize(u.size());
  }
}
BENCHMARK(BM_ScalarUnion)->Arg(65536)->Arg(kHeadlineNodes)->Unit(
    benchmark::kMicrosecond);

void BM_PackedUnion(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  treeq::Rng rng(1);
  NodeSet a = NodeSet::FromVector(n, RandomMembers(&rng, n, 0.5));
  NodeSet b = NodeSet::FromVector(n, RandomMembers(&rng, n, 0.5));
  for (auto _ : state) {
    NodeSet u = a;
    u.UnionWith(b);
    benchmark::DoNotOptimize(u.size());
  }
}
BENCHMARK(BM_PackedUnion)->Arg(65536)->Arg(kHeadlineNodes)->Unit(
    benchmark::kMicrosecond);

void BM_PackedDescendantImage(benchmark::State& state) {
  Tree t = MakeBigTree();
  TreeOrders o = treeq::ComputeOrders(t);
  const int n = t.num_nodes();
  treeq::Rng rng(2);
  NodeSet from = NodeSet::FromVector(n, RandomMembers(&rng, n, 0.01));
  NodeSet to(n);
  for (auto _ : state) {
    treeq::AxisImage(t, o, treeq::Axis::kDescendant, from, &to);
    benchmark::DoNotOptimize(to.size());
  }
}
BENCHMARK(BM_PackedDescendantImage)->Unit(benchmark::kMillisecond);

void BM_PackedAncestorImage(benchmark::State& state) {
  Tree t = MakeBigTree();
  TreeOrders o = treeq::ComputeOrders(t);
  const int n = t.num_nodes();
  treeq::Rng rng(3);
  NodeSet from = NodeSet::FromVector(n, RandomMembers(&rng, n, 0.01));
  NodeSet to(n);
  for (auto _ : state) {
    treeq::AxisImage(t, o, treeq::Axis::kAncestor, from, &to);
    benchmark::DoNotOptimize(to.size());
  }
}
BENCHMARK(BM_PackedAncestorImage)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --json mode: one row per kernel with scalar/packed medians and the
// speedup, at the headline size. Result sizes are cross-checked so the
// baselines and kernels provably compute the same images.

void JsonWorkload(treeq::benchjson::Record* rec) {
  constexpr int kReps = 7;
  Tree t = MakeBigTree();
  TreeOrders o = treeq::ComputeOrders(t);
  const int n = t.num_nodes();
  rec->SetNumber("input_nodes", n);
  rec->SetNumber("reps", kReps);
  rec->SetString("tree_shape", "balanced 4-ary, depth 10, doc-order ids");

  treeq::Rng rng(7);
  const std::vector<NodeId> a_members = RandomMembers(&rng, n, 0.5);
  const std::vector<NodeId> b_members = RandomMembers(&rng, n, 0.5);
  const std::vector<NodeId> sparse_members = RandomMembers(&rng, n, 0.01);

  ScalarNodeSet sa(n), sb(n), s_sparse(n);
  for (NodeId v : a_members) sa.Insert(v);
  for (NodeId v : b_members) sb.Insert(v);
  for (NodeId v : sparse_members) s_sparse.Insert(v);
  NodeSet pa = NodeSet::FromVector(n, a_members);
  NodeSet pb = NodeSet::FromVector(n, b_members);
  NodeSet p_sparse = NodeSet::FromVector(n, sparse_members);

  int next_op_id = 0;
  auto add_row = [&](const char* op, uint64_t scalar_ns, uint64_t packed_ns,
                     int scalar_size, int packed_size) {
    TREEQ_CHECK(scalar_size == packed_size);
    std::printf("%-22s scalar %12llu ns   packed %12llu ns   speedup %.1fx\n",
                op, static_cast<unsigned long long>(scalar_ns),
                static_cast<unsigned long long>(packed_ns),
                static_cast<double>(scalar_ns) /
                    static_cast<double>(packed_ns));
    const int op_id = next_op_id++;
    rec->SetString("op" + std::to_string(op_id), op);
    rec->AddRow({{"op_id", static_cast<double>(op_id)},
                 {"n", static_cast<double>(n)},
                 {"scalar_ns", static_cast<double>(scalar_ns)},
                 {"packed_ns", static_cast<double>(packed_ns)},
                 {"speedup", static_cast<double>(scalar_ns) /
                                 static_cast<double>(packed_ns)},
                 {"result_size", static_cast<double>(packed_size)}});
  };

  {
    int ssize = 0, psize = 0;
    uint64_t s = TimeMedianNs(kReps, [&] {
      ScalarNodeSet u = sa;
      u.UnionWith(sb);
      ssize = u.size();
    });
    uint64_t p = TimeMedianNs(kReps, [&] {
      NodeSet u = pa;
      u.UnionWith(pb);
      psize = u.size();
    });
    add_row("union", s, p, ssize, psize);
  }
  {
    int ssize = 0, psize = 0;
    uint64_t s = TimeMedianNs(kReps, [&] {
      ScalarNodeSet u = sa;
      u.IntersectWith(sb);
      ssize = u.size();
    });
    uint64_t p = TimeMedianNs(kReps, [&] {
      NodeSet u = pa;
      u.IntersectWith(pb);
      psize = u.size();
    });
    add_row("intersect", s, p, ssize, psize);
  }
  {
    int ssize = 0, psize = 0;
    uint64_t s = TimeMedianNs(kReps, [&] {
      ScalarNodeSet u = sa;
      u.Complement();
      ssize = u.size();
    });
    uint64_t p = TimeMedianNs(kReps, [&] {
      NodeSet u = pa;
      u.Complement();
      psize = u.size();
    });
    add_row("complement", s, p, ssize, psize);
  }
  {
    int ssize = 0, psize = 0;
    uint64_t s = TimeMedianNs(kReps, [&] {
      ScalarNodeSet to(n);
      ScalarDescendantImage(t, o, s_sparse, &to);
      ssize = to.size();
    });
    NodeSet to(n);
    uint64_t p = TimeMedianNs(kReps, [&] {
      treeq::AxisImage(t, o, treeq::Axis::kDescendant, p_sparse, &to);
      psize = to.size();
    });
    add_row("descendant_image", s, p, ssize, psize);
  }
  {
    int ssize = 0, psize = 0;
    uint64_t s = TimeMedianNs(kReps, [&] {
      ScalarNodeSet to(n);
      ScalarAncestorImage(t, o, s_sparse, &to);
      ssize = to.size();
    });
    NodeSet to(n);
    uint64_t p = TimeMedianNs(kReps, [&] {
      treeq::AxisImage(t, o, treeq::Axis::kAncestor, p_sparse, &to);
      psize = to.size();
    });
    add_row("ancestor_image", s, p, ssize, psize);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    return treeq::benchjson::WriteRecord(json_path, "bench_nodeset_kernels",
                                         JsonWorkload);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
