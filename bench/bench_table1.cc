// T1 — Table 1 of the paper: satisfiability of R(x,z) ∧ S(y,z) ∧ x <pre y
// for R, S in {Child, Child+, NextSibling, NextSibling+}. The matrix is
// regenerated two ways: from the rule table the Theorem 5.1 rewriter uses,
// and by exhaustive witness search over a generated tree family; both are
// printed side by side (they must agree — rewrite_test enforces it too).

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdio>
#include <vector>

#include "cq/rewrite.h"
#include "tree/axes.h"
#include "tree/generator.h"
#include "tree/orders.h"
#include "util/random.h"

namespace {

using treeq::cq::RewriteAxis;

constexpr RewriteAxis kAxes[] = {
    RewriteAxis::kChild, RewriteAxis::kChildPlus, RewriteAxis::kNextSibling,
    RewriteAxis::kNextSiblingPlus};
constexpr const char* kNames[] = {"Child", "Child+", "NextSibling",
                                  "NextSibling+"};

treeq::Axis ToTreeAxis(RewriteAxis r) {
  switch (r) {
    case RewriteAxis::kChild:
      return treeq::Axis::kChild;
    case RewriteAxis::kChildPlus:
      return treeq::Axis::kDescendant;
    case RewriteAxis::kNextSibling:
      return treeq::Axis::kNextSibling;
    case RewriteAxis::kNextSiblingPlus:
      return treeq::Axis::kFollowingSibling;
  }
  return treeq::Axis::kSelf;
}

bool EmpiricalWitness(const std::vector<treeq::Tree>& trees, RewriteAxis r,
                      RewriteAxis s) {
  for (const treeq::Tree& t : trees) {
    treeq::TreeOrders o = treeq::ComputeOrders(t);
    for (treeq::NodeId x = 0; x < t.num_nodes(); ++x) {
      for (treeq::NodeId y = 0; y < t.num_nodes(); ++y) {
        if (x >= y) continue;
        for (treeq::NodeId z = 0; z < t.num_nodes(); ++z) {
          if (treeq::AxisHolds(t, o, ToTreeAxis(r), x, z) &&
              treeq::AxisHolds(t, o, ToTreeAxis(s), y, z)) {
            return true;
          }
        }
      }
    }
  }
  return false;
}

std::vector<treeq::Tree> SampleTrees() {
  std::vector<treeq::Tree> trees;
  for (int seed = 0; seed < 10; ++seed) {
    treeq::Rng rng(seed);
    treeq::RandomTreeOptions opts;
    opts.num_nodes = 12;
    opts.attach_window = 1 + seed % 5;
    trees.push_back(treeq::RandomTree(&rng, opts));
  }
  return trees;
}

void PrintTable1() {
  std::vector<treeq::Tree> trees = SampleTrees();
  std::printf("=== Table 1: satisfiability of R(x,z) & S(y,z) & x<pre y ===\n");
  std::printf("(each cell: rule-table / empirical witness search)\n\n");
  std::printf("%-14s", "R \\ S");
  for (const char* n : kNames) std::printf("%-16s", n);
  std::printf("\n");
  bool all_agree = true;
  for (int i = 0; i < 4; ++i) {
    std::printf("%-14s", kNames[i]);
    for (int j = 0; j < 4; ++j) {
      bool table = treeq::cq::Table1Satisfiable(kAxes[i], kAxes[j]);
      bool emp = EmpiricalWitness(trees, kAxes[i], kAxes[j]);
      all_agree = all_agree && (table == emp);
      std::printf("%-16s", table ? (emp ? "sat/sat" : "sat/UNSAT?!")
                                 : (emp ? "unsat/SAT?!" : "unsat/unsat"));
    }
    std::printf("\n");
  }
  std::printf("\nrule table and empirical search agree: %s\n\n",
              all_agree ? "yes" : "NO — BUG");
}

void BM_Table1EmpiricalVerification(benchmark::State& state) {
  treeq::Rng rng(1);
  treeq::RandomTreeOptions opts;
  opts.num_nodes = static_cast<int>(state.range(0));
  std::vector<treeq::Tree> trees = {treeq::RandomTree(&rng, opts)};
  for (auto _ : state) {
    int sat_count = 0;
    for (RewriteAxis r : kAxes) {
      for (RewriteAxis s : kAxes) {
        sat_count += EmpiricalWitness(trees, r, s) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(sat_count);
  }
}
BENCHMARK(BM_Table1EmpiricalVerification)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    // --json mode: the headline workload runs once under a reset obs
    // registry; its work counters and spans land in the record.
    return treeq::benchjson::WriteRecord(
        json_path, "bench_table1", [](treeq::benchjson::Record*) {
          PrintTable1();
        });
  }
  PrintTable1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
