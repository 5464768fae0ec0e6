// S4a — Theorem 4.1 / Proposition 4.2: acyclic conjunctive queries evaluate
// in O(||A|| * |Q|) via the full reducer (Yannakakis on trees), while
// generic backtracking is super-polynomial in the query. Two sweeps:
// data size at fixed query (both linear-ish, reducer far cheaper) and query
// length at fixed data (reducer linear in |Q|, backtracking explodes —
// the crossover the paper's combined-complexity bounds predict).

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdio>
#include <string>

#include "cq/naive.h"
#include "cq/parser.h"
#include "cq/treewidth_eval.h"
#include "cq/yannakakis.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "util/random.h"

namespace {

treeq::Tree MakeTree(int n) {
  treeq::Rng rng(31);
  treeq::RandomTreeOptions opts;
  opts.num_nodes = n;
  opts.attach_window = 4;
  opts.alphabet = {"a", "b"};
  return treeq::RandomTree(&rng, opts);
}

// Shallow tree (depth ~ log n) for the backtracking baselines: on deep
// trees the number of Child+ chains is astronomically large and full
// enumeration would not terminate in bench time; shallow documents keep
// the super-polynomial growth visible but bounded.
treeq::Tree MakeShallowTree(int n) {
  treeq::Rng rng(31);
  treeq::RandomTreeOptions opts;
  opts.num_nodes = n;
  opts.attach_window = n;
  opts.alphabet = {"a", "b"};
  return treeq::RandomTree(&rng, opts);
}

/// A path query of k Child+ steps alternating labels:
/// Q(x0) :- Child+(x0,x1), Lab(x1), Child+(x1,x2), ...
treeq::cq::ConjunctiveQuery PathQuery(int k) {
  std::string text = "Q(x0) :- Lab_a(x0)";
  for (int i = 1; i <= k; ++i) {
    text += ", Child+(x" + std::to_string(i - 1) + ", x" +
            std::to_string(i) + ")";
    text += std::string(", Lab_") + (i % 2 ? "b" : "a") + "(x" +
            std::to_string(i) + ")";
  }
  text += ".";
  return treeq::cq::ParseCq(text).value();
}

void PrintWorkCounters() {
  std::printf("=== Prop 4.2: reducer vs backtracking work, query sweep ===\n");
  std::printf("(shallow tree: 400 nodes; query: k Child+ steps)\n");
  std::printf("%-6s %-22s %-22s\n", "k", "backtrack assignments",
              "reducer semijoins (=2(k))");
  treeq::Document doc(MakeShallowTree(400));
  for (int k : {2, 4, 6, 8}) {
    treeq::cq::ConjunctiveQuery q = PathQuery(k);
    treeq::cq::NaiveCqStats stats;
    auto r = treeq::cq::NaiveEvaluateCq(q, doc, &stats);
    TREEQ_CHECK(r.ok());
    std::printf("%-6d %-22llu %-22d\n", k,
                static_cast<unsigned long long>(stats.assignments_tried),
                2 * k);
  }
  std::printf("\n");
}

void BM_FullReducerDataSweep(benchmark::State& state) {
  treeq::Document doc(MakeTree(static_cast<int>(state.range(0))));
  treeq::cq::ConjunctiveQuery q = PathQuery(4);
  for (auto _ : state) {
    auto r = treeq::cq::EvaluateUnaryAcyclic(q, doc);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullReducerDataSweep)
    ->RangeMultiplier(4)
    ->Range(1024, 65536)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_BacktrackDataSweep(benchmark::State& state) {
  treeq::Document doc(MakeShallowTree(static_cast<int>(state.range(0))));
  treeq::cq::ConjunctiveQuery q = PathQuery(4);
  for (auto _ : state) {
    auto r = treeq::cq::NaiveEvaluateCq(q, doc);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_BacktrackDataSweep)->Arg(512)->Arg(1024)->Unit(
    benchmark::kMillisecond);

void BM_FullReducerQuerySweep(benchmark::State& state) {
  treeq::Document doc(MakeTree(2048));
  treeq::cq::ConjunctiveQuery q = PathQuery(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = treeq::cq::EvaluateUnaryAcyclic(q, doc);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullReducerQuerySweep)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_BacktrackQuerySweep(benchmark::State& state) {
  treeq::Document doc(MakeShallowTree(1024));
  treeq::cq::ConjunctiveQuery q = PathQuery(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = treeq::cq::NaiveEvaluateCq(q, doc);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_BacktrackQuerySweep)->Arg(2)->Arg(3)->Arg(4)->Unit(
    benchmark::kMillisecond);

// Theorem 4.1: CYCLIC queries of bounded width stay polynomial through the
// decomposition route (a triangle has width 2: cost ~ |A|^3 worst case,
// label-pruned here). Acyclicity-based engines cannot run this query at
// all; backtracking can, but with no polynomial guarantee.
void BM_TreewidthCyclicTriangle(benchmark::State& state) {
  treeq::Document doc(MakeTree(static_cast<int>(state.range(0))));
  auto q = treeq::cq::ParseCq(
               "Q() :- Child(x, y), Child(y, z), Child+(x, z), Lab_a(x), "
               "Lab_b(z).")
               .value();
  treeq::cq::TreewidthEvalStats stats;
  for (auto _ : state) {
    auto r = treeq::cq::EvaluateBooleanTreewidth(q, doc, &stats);
    benchmark::DoNotOptimize(r.ok());
  }
  state.counters["width"] = stats.width;
}
BENCHMARK(BM_TreewidthCyclicTriangle)->Arg(64)->Arg(128)->Arg(256)->Unit(
    benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    // --json mode: the headline workload runs once under a reset obs
    // registry; its work counters and spans land in the record.
    return treeq::benchjson::WriteRecord(
        json_path, "bench_prop42_acyclic", [](treeq::benchjson::Record*) {
          PrintWorkCounters();
        });
  }
  PrintWorkCounters();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
