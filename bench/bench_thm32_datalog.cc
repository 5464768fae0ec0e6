// S3 — Theorem 3.2: monadic datalog over tau+ has O(|P| * |Dom|) combined
// complexity. Two sweeps: tree size at a fixed program (expect linear), and
// program size at a fixed tree (expect linear). The grounding statistics
// (clauses ~ |P| * |Dom|) are reported as counters.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdio>
#include <string>

#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "tree/generator.h"
#include "util/random.h"

namespace {

treeq::Tree MakeTree(int n) {
  treeq::Rng rng(17);
  treeq::RandomTreeOptions opts;
  opts.num_nodes = n;
  opts.alphabet = {"a", "b", "L"};
  return treeq::RandomTree(&rng, opts);
}

/// Example 3.1 (nodes with an L-labeled descendant), the fixed program.
treeq::datalog::Program FixedProgram() {
  return treeq::datalog::ParseProgram(R"(
    P0(x)  :- Label("L", x).
    P0(x0) :- NextSibling(x0, x), P0(x).
    P(x0)  :- FirstChild(x0, x), P0(x).
    P0(x)  :- P(x).
    ?- P.
  )").value();
}

/// A program with `k` chained marking rules (size grows linearly in k):
/// M0 marks L-nodes, Mi marks parents of M(i-1) nodes.
treeq::datalog::Program ChainedProgram(int k) {
  std::string text = "M0(x) :- Label(\"L\", x).\n";
  for (int i = 1; i <= k; ++i) {
    text += "M" + std::to_string(i) + "(x) :- Child(x, y), M" +
            std::to_string(i - 1) + "(y).\n";
  }
  text += "?- M" + std::to_string(k) + ".\n";
  return treeq::datalog::ParseProgram(text).value();
}

void PrintGroundingSizes() {
  std::printf("=== Theorem 3.2: ground program sizes ===\n");
  std::printf("%-10s %-10s %-14s %-14s\n", "|Dom|", "|P| atoms",
              "ground clauses", "clauses/node");
  treeq::datalog::Program p = FixedProgram();
  for (int n : {100, 1000, 10000}) {
    treeq::Document doc(MakeTree(n));
    treeq::datalog::EvalStats stats;
    auto r = treeq::datalog::EvaluateDatalog(p, doc, &stats);
    TREEQ_CHECK(r.ok());
    std::printf("%-10d %-10d %-14d %-14.2f\n", n, p.SizeInAtoms(),
                stats.ground_clauses,
                static_cast<double>(stats.ground_clauses) / n);
  }
  std::printf("(clauses/node is flat: grounding is |P| * |Dom|)\n\n");
}

void BM_DataSweep(benchmark::State& state) {
  treeq::Document doc(MakeTree(static_cast<int>(state.range(0))));
  treeq::datalog::Program p = FixedProgram();
  for (auto _ : state) {
    auto r = treeq::datalog::EvaluateDatalog(p, doc);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DataSweep)
    ->RangeMultiplier(4)
    ->Range(1024, 65536)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_ProgramSweep(benchmark::State& state) {
  treeq::Document doc(MakeTree(4096));
  treeq::datalog::Program p = ChainedProgram(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = treeq::datalog::EvaluateDatalog(p, doc);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetComplexityN(p.SizeInAtoms());
  state.counters["program_atoms"] = p.SizeInAtoms();
}
BENCHMARK(BM_ProgramSweep)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

// Ablation: the naive fixpoint oracle on the same fixed program — its
// per-iteration rule matching is polynomial, not linear, so it falls behind
// quickly in the data sweep.
void BM_NaiveOracleDataSweep(benchmark::State& state) {
  treeq::Document doc(MakeTree(static_cast<int>(state.range(0))));
  treeq::datalog::Program p = FixedProgram();
  for (auto _ : state) {
    auto r = treeq::datalog::EvaluateDatalogNaive(p, doc);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_NaiveOracleDataSweep)->Arg(256)->Arg(1024)->Unit(
    benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    // --json mode: the headline workload runs once under a reset obs
    // registry; its work counters and spans land in the record.
    return treeq::benchjson::WriteRecord(
        json_path, "bench_thm32_datalog", [](treeq::benchjson::Record*) {
          PrintGroundingSizes();
        });
  }
  PrintGroundingSizes();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
