// F6 — Figure 6 / Propositions 6.9-6.10: enumerating all solutions of an
// acyclic CQ from a fully reduced pre-valuation is backtracking-free, so
// runtime is governed by the output size. We hold the input document fixed
// and scale the number of solutions via label selectivity; expected shape:
// enumeration time grows linearly with |output| while the reduction cost
// stays flat. The naive backtracker is the baseline.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdio>

#include "cq/enumerate.h"
#include "cq/naive.h"
#include "cq/parser.h"
#include "cq/yannakakis.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "util/random.h"

namespace {

// Caterpillar with `legs` leaves per spine node: the query
// Q(x, y) :- Child(s, x), Child(s, y), ... has ~legs^2 matches per spine
// node, so `legs` directly scales the output.
treeq::Tree MakeDoc(int legs) { return treeq::Caterpillar(64, legs); }

treeq::cq::ConjunctiveQuery Query() {
  return treeq::cq::ParseCq(
             "Q(x, y) :- Child(s, x), Lab_l(x), NextSibling+(x, y), "
             "Lab_l(y).")
      .value();
}

// With a record, each legs value becomes a row {legs, solutions}.
void PrintOutputSensitivity(treeq::benchjson::Record* record = nullptr) {
  std::printf("=== Figure 6: output-sensitive enumeration ===\n");
  std::printf("%-8s %-12s %-14s\n", "legs", "solutions", "per-solution work");
  for (int legs : {2, 4, 8, 16}) {
    treeq::Document doc(MakeDoc(legs));
    treeq::cq::ConjunctiveQuery q = Query();
    treeq::Result<treeq::cq::ReducedQuery> reduced =
        treeq::cq::FullReducer(q, doc);
    auto solutions =
        treeq::cq::EnumerateSolutions(q, doc, reduced.value()).value();
    std::printf("%-8d %-12zu (see timed series below)\n", legs,
                solutions.size());
    if (record != nullptr) {
      record->AddRow({{"legs", legs},
                      {"solutions", static_cast<double>(solutions.size())}});
    }
  }
  std::printf("\n");
}

void BM_EnumerateFromReduced(benchmark::State& state) {
  treeq::Document doc(MakeDoc(static_cast<int>(state.range(0))));
  treeq::cq::ConjunctiveQuery q = Query();
  treeq::cq::ReducedQuery reduced =
      std::move(treeq::cq::FullReducer(q, doc)).value();
  size_t out = 0;
  for (auto _ : state) {
    auto solutions = treeq::cq::EnumerateSolutions(q, doc, reduced).value();
    out = solutions.size();
    benchmark::DoNotOptimize(solutions.data());
  }
  state.counters["solutions"] = static_cast<double>(out);
  state.SetComplexityN(static_cast<int64_t>(out));
}
BENCHMARK(BM_EnumerateFromReduced)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_FullReducerOnly(benchmark::State& state) {
  treeq::Document doc(MakeDoc(static_cast<int>(state.range(0))));
  treeq::cq::ConjunctiveQuery q = Query();
  for (auto _ : state) {
    auto reduced = treeq::cq::FullReducer(q, doc);
    benchmark::DoNotOptimize(reduced.ok());
  }
}
BENCHMARK(BM_FullReducerOnly)
    ->Arg(2)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_NaiveBaseline(benchmark::State& state) {
  treeq::Document doc(MakeDoc(static_cast<int>(state.range(0))));
  treeq::cq::ConjunctiveQuery q = Query();
  for (auto _ : state) {
    auto tuples = treeq::cq::NaiveEvaluateCq(q, doc);
    benchmark::DoNotOptimize(tuples.ok());
  }
}
BENCHMARK(BM_NaiveBaseline)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    // --json mode: the headline workload runs once under a reset obs
    // registry; its work counters and spans land in the record.
    return treeq::benchjson::WriteRecord(
        json_path, "bench_fig6_enumerate",
        [](treeq::benchjson::Record* record) {
          PrintOutputSensitivity(record);
        });
  }
  PrintOutputSensitivity();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
