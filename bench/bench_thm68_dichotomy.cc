// S6b — Theorem 6.8, the dichotomy: CQ[F] is in P iff some order gives all
// of F the X-underbar property; otherwise NP-complete. We print the
// classification of representative signatures, then measure the dispatcher:
// inside tau_1/tau_2/tau_3 it runs the Theorem 6.5 evaluator (polynomial,
// smooth growth); outside, it falls back to backtracking, whose search
// effort on crafted instances grows explosively with the query size.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdio>
#include <string>

#include "cq/dichotomy.h"
#include "cq/naive.h"
#include "cq/parser.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "util/random.h"

namespace {

void PrintClassification() {
  std::printf("=== Theorem 6.8: signature classification ===\n");
  struct Case {
    const char* name;
    std::vector<treeq::Axis> axes;
  };
  const Case kCases[] = {
      {"{Child+, Child*}",
       {treeq::Axis::kDescendant, treeq::Axis::kDescendantOrSelf}},
      {"{Following}", {treeq::Axis::kFollowing}},
      {"{Child, NextSibling, NextSibling+, NextSibling*}",
       {treeq::Axis::kChild, treeq::Axis::kNextSibling,
        treeq::Axis::kFollowingSibling,
        treeq::Axis::kFollowingSiblingOrSelf}},
      {"{Child, Child+}", {treeq::Axis::kChild, treeq::Axis::kDescendant}},
      {"{Child+, NextSibling}",
       {treeq::Axis::kDescendant, treeq::Axis::kNextSibling}},
      {"{Child+, Following}",
       {treeq::Axis::kDescendant, treeq::Axis::kFollowing}},
      {"{Parent, PrevSibling} (inverses)",
       {treeq::Axis::kParent, treeq::Axis::kPrevSibling}},
  };
  for (const Case& c : kCases) {
    std::printf("  %-48s -> %s\n", c.name,
                treeq::cq::SignatureClassName(
                    treeq::cq::ClassifySignature(c.axes)));
  }
  std::printf("\n");
}

// Hard-side instance family: k "descendant chain + child anchor" variables;
// nearly-satisfiable on a long chain with sparse labels, which makes the
// backtracker sweat.
treeq::cq::ConjunctiveQuery HardQuery(int k) {
  std::string text = "Q() :- Lab_a(x0)";
  for (int i = 1; i <= k; ++i) {
    std::string v = "x" + std::to_string(i);
    std::string prev = "x" + std::to_string(i - 1);
    text += ", Child+(" + prev + ", " + v + ")";
    text += ", Child(" + v + ", c" + std::to_string(i) + ")";
    text += ", Lab_b(c" + std::to_string(i) + ")";
  }
  text += ".";
  return treeq::cq::ParseCq(text).value();
}

treeq::Tree HardTree(int n) {
  // Deep-ish random tree with rare 'b' labels: many near misses.
  treeq::Rng rng(13);
  treeq::RandomTreeOptions opts;
  opts.num_nodes = n;
  opts.attach_window = 2;
  opts.alphabet = {"a", "a", "a", "c", "b"};
  return treeq::RandomTree(&rng, opts);
}

void PrintSearchBlowup() {
  std::printf("hard-side search effort (signature {Child, Child+}):\n");
  std::printf("%-6s %-22s\n", "k", "backtrack assignments");
  treeq::Document doc(HardTree(220));
  for (int k : {1, 2, 3, 4}) {
    treeq::cq::NaiveCqStats stats;
    auto r = treeq::cq::NaiveSatisfiableCq(HardQuery(k), doc, &stats);
    TREEQ_CHECK(r.ok());
    std::printf("%-6d %-22llu\n", k,
                static_cast<unsigned long long>(stats.assignments_tried));
  }
  std::printf("\n");
}

// Tractable side: same chain shape but in pure tau_1 (Child+ only) runs
// through the X-property evaluator regardless of k.
treeq::cq::ConjunctiveQuery Tau1Chain(int k) {
  std::string text = "Q() :- Lab_a(x0)";
  for (int i = 1; i <= k; ++i) {
    text += ", Child+(x" + std::to_string(i - 1) + ", x" +
            std::to_string(i) + ")";
    text += ", Lab_b(x" + std::to_string(i) + ")";
  }
  text += ".";
  return treeq::cq::ParseCq(text).value();
}

void BM_DispatcherTractable(benchmark::State& state) {
  treeq::Document doc(HardTree(300));
  treeq::cq::ConjunctiveQuery q = Tau1Chain(static_cast<int>(state.range(0)));
  bool tractable = false;
  for (auto _ : state) {
    auto r = treeq::cq::EvaluateBooleanDichotomy(q, doc, &tractable);
    benchmark::DoNotOptimize(r.ok());
  }
  state.counters["tractable_path"] = tractable ? 1 : 0;
}
BENCHMARK(BM_DispatcherTractable)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMicrosecond);

void BM_DispatcherNpHard(benchmark::State& state) {
  treeq::Document doc(HardTree(220));
  treeq::cq::ConjunctiveQuery q = HardQuery(static_cast<int>(state.range(0)));
  bool tractable = true;
  for (auto _ : state) {
    auto r = treeq::cq::EvaluateBooleanDichotomy(q, doc, &tractable);
    benchmark::DoNotOptimize(r.ok());
  }
  state.counters["tractable_path"] = tractable ? 1 : 0;
}
BENCHMARK(BM_DispatcherNpHard)->Arg(1)->Arg(2)->Arg(3)->Unit(
    benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    // --json mode: the headline workload runs once under a reset obs
    // registry; its work counters and spans land in the record.
    return treeq::benchjson::WriteRecord(
        json_path, "bench_thm68_dichotomy", [](treeq::benchjson::Record*) {
          PrintClassification();
          PrintSearchBlowup();
        });
  }
  PrintClassification();
  PrintSearchBlowup();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
