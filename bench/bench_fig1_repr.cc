// F1 — Figure 1: an unranked tree and its binary representation through
// FirstChild and NextSibling. We rebuild a tree from exactly those two
// partial functions, verify the round trip, and time construction plus
// order computation at scale (everything downstream — Theorem 3.2's
// grounding, the streaming evaluator — leans on this O(n) substrate).

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdio>

#include "tree/generator.h"
#include "tree/orders.h"
#include "tree/tree.h"
#include "util/random.h"

namespace {

/// Rebuilds `t` from its (FirstChild, NextSibling) encoding only.
treeq::Tree RebuildFromBinaryEncoding(const treeq::Tree& t) {
  treeq::TreeBuilder builder;
  // Walk the FirstChild/NextSibling pointers exactly as Figure 1(b) draws
  // them; no other navigation is consulted.
  struct Pending {
    treeq::NodeId src;
    treeq::NodeId dst_parent;
  };
  std::vector<Pending> stack;
  treeq::NodeId root = builder.AddChild(
      treeq::kNullNode, t.label_table().Name(t.label(t.root())));
  if (t.first_child(t.root()) != treeq::kNullNode) {
    stack.push_back({t.first_child(t.root()), root});
  }
  while (!stack.empty()) {
    Pending p = stack.back();
    stack.pop_back();
    treeq::NodeId fresh =
        builder.AddChild(p.dst_parent, t.label_table().Name(t.label(p.src)));
    if (t.next_sibling(p.src) != treeq::kNullNode) {
      stack.push_back({t.next_sibling(p.src), p.dst_parent});
    }
    if (t.first_child(p.src) != treeq::kNullNode) {
      stack.push_back({t.first_child(p.src), fresh});
    }
  }
  treeq::Result<treeq::Tree> rebuilt = builder.Finish();
  TREEQ_CHECK(rebuilt.ok());
  return std::move(rebuilt).value();
}

void PrintFigure1() {
  std::printf("=== Figure 1: FirstChild/NextSibling binary encoding ===\n");
  // The figure's 6-node tree.
  treeq::TreeBuilder b;
  treeq::NodeId n1 = b.AddChild(treeq::kNullNode, "n1");
  b.AddChild(n1, "n2");
  b.AddChild(n1, "n3");
  treeq::NodeId n4 = b.AddChild(n1, "n4");
  b.AddChild(n4, "n5");
  b.AddChild(n4, "n6");
  treeq::Tree t = std::move(b.Finish()).value();
  std::printf("FirstChild edges:");
  for (treeq::NodeId v = 0; v < t.num_nodes(); ++v) {
    if (t.first_child(v) != treeq::kNullNode) {
      std::printf(" (%s,%s)", t.label_table().Name(t.label(v)).c_str(),
                  t.label_table().Name(t.label(t.first_child(v))).c_str());
    }
  }
  std::printf("\nNextSibling edges:");
  for (treeq::NodeId v = 0; v < t.num_nodes(); ++v) {
    if (t.next_sibling(v) != treeq::kNullNode) {
      std::printf(" (%s,%s)", t.label_table().Name(t.label(v)).c_str(),
                  t.label_table().Name(t.label(t.next_sibling(v))).c_str());
    }
  }
  treeq::Tree rebuilt = RebuildFromBinaryEncoding(t);
  bool same = rebuilt.num_nodes() == t.num_nodes();
  for (treeq::NodeId v = 0; same && v < t.num_nodes(); ++v) {
    same = rebuilt.parent(v) == t.parent(v) &&
           rebuilt.next_sibling(v) == t.next_sibling(v);
  }
  std::printf("\nround trip through the binary encoding: %s\n\n",
              same ? "identical" : "MISMATCH — BUG");
}

void BM_BuildFromBinaryEncoding(benchmark::State& state) {
  treeq::Rng rng(7);
  treeq::RandomTreeOptions opts;
  opts.num_nodes = static_cast<int>(state.range(0));
  treeq::Tree t = treeq::RandomTree(&rng, opts);
  for (auto _ : state) {
    treeq::Tree rebuilt = RebuildFromBinaryEncoding(t);
    benchmark::DoNotOptimize(rebuilt.num_nodes());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildFromBinaryEncoding)
    ->RangeMultiplier(4)
    ->Range(1024, 65536)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_ComputeOrders(benchmark::State& state) {
  treeq::Rng rng(7);
  treeq::RandomTreeOptions opts;
  opts.num_nodes = static_cast<int>(state.range(0));
  treeq::Tree t = treeq::RandomTree(&rng, opts);
  for (auto _ : state) {
    treeq::TreeOrders o = treeq::ComputeOrders(t);
    benchmark::DoNotOptimize(o.size.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ComputeOrders)
    ->RangeMultiplier(4)
    ->Range(1024, 65536)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    // --json mode: the headline workload runs once under a reset obs
    // registry; its work counters and spans land in the record.
    return treeq::benchjson::WriteRecord(
        json_path, "bench_fig1_repr", [](treeq::benchjson::Record*) {
          PrintFigure1();
        });
  }
  PrintFigure1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
