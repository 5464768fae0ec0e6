// S4b — Core XPath combined complexity: the set-at-a-time evaluator runs in
// O(|D| * |Q|) ([32,33], Section 4), while the textbook per-context-node
// recursive interpreter is exponential in the query (the "engines are
// exponential" observation that motivated [32]). Query sweep on //*//*...
// chains: naive rule applications grow ~|D|^k; the linear evaluator stays
// proportional to k.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_json.h"
#include "obs/stats.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "util/random.h"
#include "xpath/evaluator.h"
#include "xpath/naive_evaluator.h"
#include "xpath/parser.h"

namespace {

treeq::Tree MakeTree(int n) {
  treeq::Rng rng(5);
  treeq::RandomTreeOptions opts;
  opts.num_nodes = n;
  opts.attach_window = 3;
  opts.alphabet = {"a"};
  return treeq::RandomTree(&rng, opts);
}

std::string DescendantChain(int k) {
  std::string q = "descendant::*";
  for (int i = 1; i < k; ++i) q += "/descendant::*";
  return q;
}

// Right-associated chain d/(d/(d/...)): the shape on which per-context
// re-evaluation is Theta(n^k) — the parser's left association would let
// even the naive interpreter get away with polynomial work, so the
// worst case is built directly.
std::unique_ptr<treeq::xpath::PathExpr> RightNestedChain(int k) {
  std::unique_ptr<treeq::xpath::PathExpr> chain =
      treeq::xpath::PathExpr::MakeStep(treeq::Axis::kDescendant);
  for (int i = 1; i < k; ++i) {
    chain = treeq::xpath::PathExpr::MakeSeq(
        treeq::xpath::PathExpr::MakeStep(treeq::Axis::kDescendant),
        std::move(chain));
  }
  return chain;
}

void PrintBlowupTable() {
  std::printf("=== naive recursive XPath: rule applications vs |Q| ===\n");
  std::printf("(document: 60 nodes; query: k right-nested descendant "
              "steps)\n");
  std::printf("%-6s %-20s %-20s\n", "k", "naive applications",
              "set-at-a-time axis ops (=k)");
  treeq::Document doc(MakeTree(60));
  for (int k : {1, 2, 3, 4, 5}) {
    auto q = RightNestedChain(k);
    treeq::xpath::NaiveStats stats;
    const treeq::ExecContext budget =
        treeq::ExecContext::WithVisitBudget(500'000'000);
    auto r = treeq::xpath::NaiveEvalPath(doc, *q, doc.tree().root(), &stats,
                                         budget);
    if (!r.ok()) {
      std::printf("%-6d %-20s %-20d\n", k, "(budget exceeded)", k);
      continue;
    }
    std::printf("%-6d %-20llu %-20d\n", k,
                static_cast<unsigned long long>(stats.rule_applications), k);
  }
  std::printf("(naive column grows geometrically: exponential combined "
              "complexity;\n the linear evaluator touches each "
              "subexpression once)\n\n");
}

void BM_SetAtATimeDataSweep(benchmark::State& state) {
  treeq::Document doc(MakeTree(static_cast<int>(state.range(0))));
  auto q = treeq::xpath::ParseXPath(DescendantChain(4)).value();
  for (auto _ : state) {
    treeq::NodeSet r = treeq::xpath::EvalQueryFromRoot(doc, *q).value();
    benchmark::DoNotOptimize(r.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SetAtATimeDataSweep)
    ->RangeMultiplier(4)
    ->Range(1024, 65536)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_SetAtATimeQuerySweep(benchmark::State& state) {
  treeq::Document doc(MakeTree(4096));
  auto q = treeq::xpath::ParseXPath(
               DescendantChain(static_cast<int>(state.range(0))))
               .value();
  for (auto _ : state) {
    treeq::NodeSet r = treeq::xpath::EvalQueryFromRoot(doc, *q).value();
    benchmark::DoNotOptimize(r.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SetAtATimeQuerySweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_NaiveQuerySweep(benchmark::State& state) {
  treeq::Document doc(MakeTree(48));
  auto q = RightNestedChain(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = treeq::xpath::NaiveEvalPath(doc, *q, doc.tree().root());
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_NaiveQuerySweep)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Unit(
    benchmark::kMicrosecond);

// Qualifier-heavy query: nested predicates are where early engines melted.
void BM_NestedQualifiers(benchmark::State& state) {
  treeq::Document doc(MakeTree(2048));
  std::string text = "descendant::a";
  for (int i = 0; i < 6; ++i) text = "descendant::a[" + text + "]";
  auto q = treeq::xpath::ParseXPath(text).value();
  for (auto _ : state) {
    treeq::NodeSet r = treeq::xpath::EvalQueryFromRoot(doc, *q).value();
    benchmark::DoNotOptimize(r.size());
  }
}
BENCHMARK(BM_NestedQualifiers)->Unit(benchmark::kMicrosecond);

// --json mode: one row per query length k, with per-k deltas of the
// engines' registry counters. The naive column grows geometrically in k
// while the set-at-a-time column grows by exactly k axis applications —
// the paper's combined-complexity contrast as data.
void JsonWorkload(treeq::benchjson::Record* rec) {
  treeq::obs::StatsRegistry& reg = treeq::obs::StatsRegistry::Global();
  treeq::Document doc(MakeTree(60));
  rec->SetNumber("input_nodes", doc.num_nodes());
  rec->SetString("query_shape", "k right-nested descendant steps");
  for (int k : {1, 2, 3, 4, 5}) {
    auto q = RightNestedChain(k);
    uint64_t naive_before = reg.CounterValue("xpath.naive.rule_applications");
    const treeq::ExecContext budget =
        treeq::ExecContext::WithVisitBudget(500'000'000);
    auto t0 = std::chrono::steady_clock::now();
    auto naive = treeq::xpath::NaiveEvalPath(doc, *q, doc.tree().root(),
                                             /*stats=*/nullptr, budget);
    auto t1 = std::chrono::steady_clock::now();
    uint64_t axis_before = reg.CounterValue("xpath.axis_ops");
    treeq::NodeSet fast = treeq::xpath::EvalQueryFromRoot(doc, *q).value();
    auto t2 = std::chrono::steady_clock::now();
    auto ns = [](auto d) {
      return static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
    };
    rec->AddRow({
        {"k", static_cast<double>(k)},
        {"naive_rule_applications",
         static_cast<double>(reg.CounterValue("xpath.naive.rule_applications") -
                             naive_before)},
        {"set_at_a_time_axis_ops",
         static_cast<double>(reg.CounterValue("xpath.axis_ops") -
                             axis_before)},
        {"naive_ok", naive.ok() ? 1.0 : 0.0},
        {"result_size", static_cast<double>(fast.size())},
        {"naive_wall_ns", ns(t1 - t0)},
        {"set_at_a_time_wall_ns", ns(t2 - t1)},
    });
  }
  // One qualifier-bearing query so the dump also carries per-qualifier work
  // (xpath.qualifier_ops), not just axis applications.
  auto qual = treeq::xpath::ParseXPath("descendant::a[descendant::a]").value();
  treeq::NodeSet qr = treeq::xpath::EvalQueryFromRoot(doc, *qual).value();
  rec->SetNumber("qualified_result_size", static_cast<double>(qr.size()));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    return treeq::benchjson::WriteRecord(json_path, "bench_xpath_combined",
                                         JsonWorkload);
  }
  PrintBlowupTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
