// S6c — holistic twig joins ([13, 48], Section 6): TwigStack processes all
// structural joins of a twig at once, keeping intermediate state
// proportional to useful path solutions, whereas a binary structural-join
// pipeline materializes edge-join results that may never contribute to a
// full match. We compare matches, intermediate-result counts, and runtime
// on a selective and an unselective twig over catalog documents.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdio>
#include <string>

#include "cq/twig_join.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "util/random.h"

namespace {

treeq::Tree MakeDoc(int products) {
  treeq::Rng rng(55);
  treeq::CatalogOptions opts;
  opts.num_products = products;
  return treeq::CatalogDocument(&rng, opts);
}

// Selective: products with a 5-star review AND a comment (few matches, but
// the binary pipeline first joins ALL product//rating5 and product//comment
// pairs).
treeq::cq::TwigPattern SelectiveTwig() {
  treeq::cq::TwigPattern p;
  p.nodes.push_back({"product", treeq::Axis::kDescendant, -1});
  p.nodes.push_back({"reviews", treeq::Axis::kChild, 0});
  p.nodes.push_back({"review", treeq::Axis::kChild, 1});
  p.nodes.push_back({"rating5", treeq::Axis::kChild, 2});
  p.nodes.push_back({"comment", treeq::Axis::kChild, 2});
  return p;
}

// Unselective: catalog//product//review (most reviews match).
treeq::cq::TwigPattern UnselectiveTwig() {
  treeq::cq::TwigPattern p;
  p.nodes.push_back({"catalog", treeq::Axis::kDescendant, -1});
  p.nodes.push_back({"product", treeq::Axis::kDescendant, 0});
  p.nodes.push_back({"review", treeq::Axis::kDescendant, 1});
  return p;
}

// With a record, each case becomes a row {case_id, matches,
// holistic_intermediates, binary_intermediates}; meta.case<i> names it.
void PrintComparison(treeq::benchjson::Record* record = nullptr) {
  std::printf("=== TwigStack vs binary structural joins ===\n");
  treeq::Document doc(MakeDoc(500));
  struct Case {
    const char* name;
    treeq::cq::TwigPattern twig;
  };
  Case cases[] = {{"selective twig", SelectiveTwig()},
                  {"unselective twig", UnselectiveTwig()}};
  std::printf("%-18s %-9s %-22s %-22s\n", "twig", "matches",
              "holistic intermediates", "binary intermediates");
  for (int i = 0; i < 2; ++i) {
    Case& c = cases[i];
    treeq::cq::TwigStats hs, bs;
    auto holistic = treeq::cq::TwigStackJoin(c.twig, doc, &hs);
    auto binary = treeq::cq::TwigByStructuralJoins(c.twig, doc, &bs);
    TREEQ_CHECK(holistic.ok() && binary.ok());
    TREEQ_CHECK(holistic.value() == binary.value());
    std::printf("%-18s %-9zu %-22llu %-22llu\n", c.name,
                holistic.value().size(),
                static_cast<unsigned long long>(hs.intermediate_results),
                static_cast<unsigned long long>(bs.intermediate_results));
    if (record != nullptr) {
      record->SetString("case" + std::to_string(i), c.name);
      record->AddRow(
          {{"case_id", i},
           {"matches", static_cast<double>(holistic.value().size())},
           {"holistic_intermediates",
            static_cast<double>(hs.intermediate_results)},
           {"binary_intermediates",
            static_cast<double>(bs.intermediate_results)}});
    }
  }
  std::printf("(holistic intermediates = stack pushes; the binary pipeline "
              "counts edge-join\n and join-result tuples — the gap is the "
              "[13] claim)\n\n");
}

void BM_TwigStackSelective(benchmark::State& state) {
  treeq::Document doc(MakeDoc(static_cast<int>(state.range(0))));
  treeq::cq::TwigPattern twig = SelectiveTwig();
  for (auto _ : state) {
    auto r = treeq::cq::TwigStackJoin(twig, doc);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetComplexityN(doc.num_nodes());
}
BENCHMARK(BM_TwigStackSelective)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_BinaryJoinsSelective(benchmark::State& state) {
  treeq::Document doc(MakeDoc(static_cast<int>(state.range(0))));
  treeq::cq::TwigPattern twig = SelectiveTwig();
  for (auto _ : state) {
    auto r = treeq::cq::TwigByStructuralJoins(twig, doc);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_BinaryJoinsSelective)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMicrosecond);

void BM_TwigStackUnselective(benchmark::State& state) {
  treeq::Document doc(MakeDoc(static_cast<int>(state.range(0))));
  treeq::cq::TwigPattern twig = UnselectiveTwig();
  for (auto _ : state) {
    auto r = treeq::cq::TwigStackJoin(twig, doc);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_TwigStackUnselective)->Arg(250)->Arg(1000)->Unit(
    benchmark::kMicrosecond);

void BM_BinaryJoinsUnselective(benchmark::State& state) {
  treeq::Document doc(MakeDoc(static_cast<int>(state.range(0))));
  treeq::cq::TwigPattern twig = UnselectiveTwig();
  for (auto _ : state) {
    auto r = treeq::cq::TwigByStructuralJoins(twig, doc);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_BinaryJoinsUnselective)->Arg(250)->Arg(1000)->Unit(
    benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    // --json mode: the headline workload runs once under a reset obs
    // registry; its work counters and spans land in the record.
    return treeq::benchjson::WriteRecord(
        json_path, "bench_twigstack", [](treeq::benchjson::Record* record) {
          PrintComparison(record);
        });
  }
  PrintComparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
