// S6a — Theorem 6.5: Boolean conjunctive queries over X-underbar signatures
// evaluate via arc-consistency + minimum valuation — even for CYCLIC
// queries, which acyclicity-based methods cannot touch. Sweeps: data size
// for a fixed cyclic tau_1 query vs backtracking; plus the ablation of the
// paper's proof (Horn encoding over the materialized ||A||, quadratic for
// Child+) against the direct image fixpoint (axis images, linear in n per
// propagation round, nothing materialized).

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdio>

#include "cq/naive.h"
#include "cq/parser.h"
#include "cq/x_property.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "util/random.h"

namespace {

treeq::Tree MakeTree(int n) {
  treeq::Rng rng(77);
  treeq::RandomTreeOptions opts;
  opts.num_nodes = n;
  opts.attach_window = 5;
  opts.alphabet = {"a", "b", "c"};
  return treeq::RandomTree(&rng, opts);
}

// A cyclic tau_1 query: a triangle of descendant atoms plus labels chosen
// to be selective.
treeq::cq::ConjunctiveQuery CyclicTau1() {
  return treeq::cq::ParseCq(
             "Q() :- Child+(x, y), Child+(y, z), Child+(x, z), Lab_a(x), "
             "Lab_b(y), Lab_c(z).")
      .value();
}

// With a record, each n becomes a row {nodes, direct_satisfiable,
// horn_satisfiable, direct_words_scanned}: the two AC implementations'
// answers and the axes.words_scanned the direct evaluation spent (zero in
// a TREEQ_OBS_DISABLED build).
void PrintHeadline(treeq::benchjson::Record* record = nullptr) {
  std::printf("=== Theorem 6.5: X-underbar evaluation of a cyclic CQ ===\n");
  std::printf("query: %s\n", CyclicTau1().ToString().c_str());
  std::printf("%-8s %-14s %-18s %-14s %-14s\n", "nodes", "X-eval result",
              "backtrack agrees", "horn agrees", "words scanned");
  const treeq::obs::StatsRegistry& stats =
      treeq::obs::StatsRegistry::Global();
  for (int n : {100, 400, 1600}) {
    treeq::Document doc(MakeTree(n));
    const uint64_t words_before = stats.CounterValue("axes.words_scanned");
    auto fast = treeq::cq::EvaluateXProperty(CyclicTau1(), doc,
                                             treeq::cq::TreeOrder::kPre);
    const uint64_t words =
        stats.CounterValue("axes.words_scanned") - words_before;
    auto horn = treeq::cq::EvaluateXProperty(
        CyclicTau1(), doc, treeq::cq::TreeOrder::kPre,
        treeq::cq::AcImplementation::kHornEncoding);
    auto slow = treeq::cq::NaiveSatisfiableCq(CyclicTau1(), doc);
    const bool direct_sat = fast.value().satisfiable;
    const bool horn_sat = horn.value().satisfiable;
    std::printf("%-8d %-14s %-18s %-14s %-14llu\n", n,
                direct_sat ? "satisfiable" : "unsatisfiable",
                direct_sat == slow.value() ? "yes" : "NO!",
                direct_sat == horn_sat ? "yes" : "NO!",
                static_cast<unsigned long long>(words));
    if (record != nullptr) {
      record->AddRow({{"nodes", n},
                      {"direct_satisfiable", direct_sat ? 1 : 0},
                      {"horn_satisfiable", horn_sat ? 1 : 0},
                      {"direct_words_scanned", static_cast<double>(words)}});
    }
  }
  std::printf("\n");
}

void BM_XPropertyDirect(benchmark::State& state) {
  treeq::Document doc(MakeTree(static_cast<int>(state.range(0))));
  treeq::cq::ConjunctiveQuery q = CyclicTau1();
  for (auto _ : state) {
    auto r = treeq::cq::EvaluateXProperty(q, doc,
                                          treeq::cq::TreeOrder::kPre,
                                          treeq::cq::AcImplementation::kDirect);
    benchmark::DoNotOptimize(r.ok());
  }
  // The image fixpoint never materializes ||A||: linear in n per round.
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_XPropertyDirect)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_XPropertyHornEncoding(benchmark::State& state) {
  treeq::Document doc(MakeTree(static_cast<int>(state.range(0))));
  treeq::cq::ConjunctiveQuery q = CyclicTau1();
  for (auto _ : state) {
    auto r = treeq::cq::EvaluateXProperty(
        q, doc, treeq::cq::TreeOrder::kPre,
        treeq::cq::AcImplementation::kHornEncoding);
    benchmark::DoNotOptimize(r.ok());
  }
  // ||A|| for Child+ is quadratic in n; the claim is linearity in ||A||.
  state.SetComplexityN(state.range(0) * state.range(0));
}
BENCHMARK(BM_XPropertyHornEncoding)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_BacktrackingBaseline(benchmark::State& state) {
  treeq::Document doc(MakeTree(static_cast<int>(state.range(0))));
  treeq::cq::ConjunctiveQuery q = CyclicTau1();
  for (auto _ : state) {
    auto r = treeq::cq::NaiveSatisfiableCq(q, doc);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_BacktrackingBaseline)->Arg(128)->Arg(512)->Unit(
    benchmark::kMicrosecond);

// tau_2 and tau_3 workloads through the same evaluator.
void BM_XPropertyTau2(benchmark::State& state) {
  treeq::Document doc(MakeTree(static_cast<int>(state.range(0))));
  auto q = treeq::cq::ParseCq(
               "Q() :- Following(x, y), Following(y, z), Following(x, z), "
               "Lab_a(x), Lab_b(y), Lab_c(z).")
               .value();
  for (auto _ : state) {
    auto r = treeq::cq::EvaluateXProperty(q, doc,
                                          treeq::cq::TreeOrder::kPost);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_XPropertyTau2)->Arg(256)->Arg(512)->Unit(
    benchmark::kMicrosecond);

void BM_XPropertyTau3(benchmark::State& state) {
  treeq::Document doc(MakeTree(static_cast<int>(state.range(0))));
  auto q = treeq::cq::ParseCq(
               "Q() :- Child(x, y), Child(x, z), NextSibling(y, z), "
               "Lab_a(y), Lab_b(z).")
               .value();
  for (auto _ : state) {
    auto r = treeq::cq::EvaluateXProperty(q, doc,
                                          treeq::cq::TreeOrder::kBflr);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_XPropertyTau3)->Arg(256)->Arg(512)->Unit(
    benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    // --json mode: the headline workload runs once under a reset obs
    // registry; its work counters and spans land in the record.
    return treeq::benchjson::WriteRecord(
        json_path, "bench_thm65_xbar", [](treeq::benchjson::Record* record) {
          PrintHeadline(record);
        });
  }
  PrintHeadline();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
