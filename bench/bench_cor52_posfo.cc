// S5c — Corollary 5.2: a fixed positive Boolean FO query evaluates on
// trees in time O(||A||), via DNF -> Theorem 5.1 -> per-component
// Yannakakis. The data sweep should be linear (the query-dependent blow-up
// is paid once, independent of the document); the naive FO model checker is
// the baseline, polynomial of degree = quantifier depth.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdio>

#include "fo/corollary52.h"
#include "fo/evaluator.h"
#include "fo/parser.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "util/random.h"

namespace {

// A positive sentence with disjunction, shared variables and transitive
// axes: "some a-node has, below it, both a b-node and (a c-node or a
// second b-node following it)".
constexpr const char* kSentence =
    "exists x . exists y . exists z . (Lab_a(x) and Child+(x, y) and "
    "Lab_b(y) and Child+(x, z) and (Lab_c(z) or (Following(y, z) and "
    "Lab_b(z))))";

treeq::Tree MakeTree(int n) {
  treeq::Rng rng(101);
  treeq::RandomTreeOptions opts;
  opts.num_nodes = n;
  opts.attach_window = 4;
  // Make the sentence *barely* unsatisfiable-ish: rare labels force real
  // work instead of an instant witness.
  opts.alphabet = {"d", "d", "d", "d", "a", "b", "c"};
  return treeq::RandomTree(&rng, opts);
}

void PrintPipelineShape() {
  std::printf("=== Corollary 5.2 pipeline shape ===\n");
  std::printf("sentence: %s\n", kSentence);
  auto f = std::move(treeq::fo::ParseFo(kSentence)).value();
  treeq::Document doc(MakeTree(400));
  treeq::fo::Corollary52Stats stats;
  auto fast = treeq::fo::EvaluateSentencePositive(*f, doc, &stats);
  auto slow = treeq::fo::EvaluateSentenceNaive(*f, doc);
  TREEQ_CHECK(fast.ok() && slow.ok());
  std::printf("CQ disjuncts after DNF:      %d\n", stats.cq_disjuncts);
  std::printf("acyclic disjuncts explored:  %d\n", stats.acyclic_disjuncts);
  std::printf("pipeline == naive oracle:    %s (answer: %s)\n\n",
              fast.value() == slow.value() ? "yes" : "NO — BUG",
              fast.value() ? "true" : "false");
}

void BM_Corollary52Pipeline(benchmark::State& state) {
  auto f = std::move(treeq::fo::ParseFo(kSentence)).value();
  treeq::Document doc(MakeTree(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto r = treeq::fo::EvaluateSentencePositive(*f, doc);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Corollary52Pipeline)
    ->RangeMultiplier(4)
    ->Range(1024, 65536)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_NaiveFoModelChecking(benchmark::State& state) {
  auto f = std::move(treeq::fo::ParseFo(kSentence)).value();
  treeq::Document doc(MakeTree(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto r = treeq::fo::EvaluateSentenceNaive(*f, doc);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_NaiveFoModelChecking)->Arg(64)->Arg(128)->Arg(256)->Unit(
    benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    // --json mode: the headline workload runs once under a reset obs
    // registry; its work counters and spans land in the record.
    return treeq::benchjson::WriteRecord(
        json_path, "bench_cor52_posfo", [](treeq::benchjson::Record*) {
          PrintPipelineShape();
        });
  }
  PrintPipelineShape();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
