// Cost-based router payoff: per-query wall time of the routed execution
// path (Plan::Execute picks the cheapest eligible engine) against the same
// plan pinned to the worst eligible engine (force_route="xpath.naive",
// the O(|Q|*|D|^2) baseline every XPath plan can fall back to), plus the
// router's own overhead against a pinned native engine. The --json record
// carries the two headline numbers CI gates:
//
//   router_vs_naive_speedup   total naive wall / total routed wall — the
//                             router must beat the worst engine by a wide
//                             margin (gated >= 3x);
//   router_overhead_ratio     routed qps / forced-native qps — picking an
//                             engine per request costs a table of cost
//                             formulas, not an evaluation (gated > 0.85).
//
// Per-query rows record both wall times and which engine the router chose
// (engine_index is the position in the plan's EligibleEngines() list, 0 =
// native), so a regression in one query's routing is visible in the JSON
// diff, not just the aggregate.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <chrono>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "plan/cost.h"
#include "tree/generator.h"
#include "util/random.h"

namespace {

using treeq::ExecContext;
using treeq::Language;
using treeq::engine::DocumentStore;
using treeq::engine::ExecuteOptions;
using treeq::engine::Plan;
using treeq::engine::PlanPtr;
using treeq::QueryResult;

// XPath-only workload: every XPath plan keeps xpath.naive eligible, so
// the forced-worst-engine comparison is well-defined for each entry. The
// mix spans the router's decision space: structural descendant chains
// (stream/set-at-a-time/Yannakakis candidates), a child step, and a
// qualifier query that lowers opaquely (router choice collapses to
// set-at-a-time vs naive).
constexpr const char* kQueries[] = {
    "//product//rating5",
    "//review/rating5",
    "//product/name",
    "/catalog/product/reviews/review",
    "/catalog/product[reviews/review]/name",
};
constexpr int kNumQueries = static_cast<int>(std::size(kQueries));

constexpr int kNumDocuments = 4;
constexpr int kProductsPerDocument = 120;
constexpr int kRepeats = 5;  // timed evaluations per (query, doc, mode)

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void BuildCorpus(DocumentStore* store) {
  for (int d = 0; d < kNumDocuments; ++d) {
    treeq::Rng rng(static_cast<uint64_t>(2000 + d));
    treeq::CatalogOptions opts;
    opts.num_products = kProductsPerDocument;
    auto added = store->Add("catalog" + std::to_string(d),
                            treeq::CatalogDocument(&rng, opts));
    TREEQ_CHECK(added.ok());
  }
}

/// Total wall time of kRepeats evaluations of `plan` over every document,
/// with `force` pinning an engine ("" = let the router decide). Checks
/// every result and returns the name of the engine that answered the last
/// evaluation through `engine_out`.
uint64_t MeasureWallNs(const PlanPtr& plan, const DocumentStore& store,
                       const std::string& force, std::string* engine_out) {
  ExecContext unbounded;
  ExecuteOptions options;
  options.force_route = force;
  uint64_t total = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const std::string& name : store.Names()) {
      treeq::DocumentPtr doc = store.Get(name).value();
      uint64_t start = NowNs();
      treeq::Result<QueryResult> r = plan->Execute(*doc, unbounded, options);
      total += NowNs() - start;
      TREEQ_CHECK(r.ok());
      benchmark::DoNotOptimize(r->engine);
      if (engine_out != nullptr) *engine_out = r->engine;
    }
  }
  return total;
}

void RunRoutingBench(treeq::benchjson::Record* record) {
  DocumentStore store;
  BuildCorpus(&store);

  std::printf("=== cost-based router vs forced engines ===\n");
  std::printf("corpus: %d catalog documents, %d products each; "
              "%d evaluations per (query, mode)\n\n",
              kNumDocuments, kProductsPerDocument,
              kRepeats * kNumDocuments);

  uint64_t routed_total_ns = 0;
  uint64_t naive_total_ns = 0;
  uint64_t native_total_ns = 0;
  for (int q = 0; q < kNumQueries; ++q) {
    auto compiled = Plan::Compile(Language::kXPath, kQueries[q]);
    TREEQ_CHECK(compiled.ok());
    PlanPtr plan = std::move(compiled).value();

    // Untimed warm-up so first-touch effects (axis tables, page faults)
    // don't land on whichever mode happens to run first.
    (void)MeasureWallNs(plan, store, "", nullptr);

    std::string routed_engine;
    const uint64_t routed_ns =
        MeasureWallNs(plan, store, "", &routed_engine);
    const uint64_t naive_ns =
        MeasureWallNs(plan, store, "xpath.naive", nullptr);
    const uint64_t native_ns = MeasureWallNs(
        plan, store, treeq::plan::EngineName(plan->NativeEngine()), nullptr);
    routed_total_ns += routed_ns;
    naive_total_ns += naive_ns;
    native_total_ns += native_ns;

    // Where the routed pick sits in the eligibility list (0 = native).
    int engine_index = -1;
    const std::vector<treeq::plan::EngineKind>& eligible =
        plan->EligibleEngines();
    for (size_t e = 0; e < eligible.size(); ++e) {
      if (routed_engine == treeq::plan::EngineName(eligible[e])) {
        engine_index = static_cast<int>(e);
      }
    }
    TREEQ_CHECK(engine_index >= 0);

    std::printf("%-40s routed=%-20s %8.2f ms   naive %8.2f ms (%6.1fx)   "
                "native %8.2f ms\n",
                kQueries[q], routed_engine.c_str(),
                static_cast<double>(routed_ns) / 1e6,
                static_cast<double>(naive_ns) / 1e6,
                static_cast<double>(naive_ns) /
                    static_cast<double>(routed_ns),
                static_cast<double>(native_ns) / 1e6);
    if (record != nullptr) {
      record->AddRow({{"query_index", static_cast<double>(q)},
                      {"engine_index", static_cast<double>(engine_index)},
                      {"eligible_engines",
                       static_cast<double>(eligible.size())},
                      {"routed_wall_ns", static_cast<double>(routed_ns)},
                      {"naive_wall_ns", static_cast<double>(naive_ns)},
                      {"native_wall_ns", static_cast<double>(native_ns)},
                      {"naive_vs_routed",
                       static_cast<double>(naive_ns) /
                           static_cast<double>(routed_ns)}});
    }
  }

  const double router_vs_naive_speedup =
      static_cast<double>(naive_total_ns) /
      static_cast<double>(routed_total_ns);
  const double router_overhead_ratio =
      static_cast<double>(native_total_ns) /
      static_cast<double>(routed_total_ns);

  std::printf("\nrouter vs always-naive:  %.1fx faster "
              "(%.2f ms vs %.2f ms total)\n",
              router_vs_naive_speedup,
              static_cast<double>(routed_total_ns) / 1e6,
              static_cast<double>(naive_total_ns) / 1e6);
  std::printf("router vs pinned-native: %.2f (>= ~1 when the router only "
              "ever improves on the native engine)\n",
              router_overhead_ratio);

  // The routed path must never lose badly to always-native: routing picks
  // the native engine unless an estimate says another engine is cheaper,
  // so the total can only drift below 1 by decision overhead plus estimate
  // error on these small documents.
  TREEQ_CHECK(router_vs_naive_speedup > 1.0);

  if (record != nullptr) {
    record->SetNumber("num_documents", kNumDocuments);
    record->SetNumber("products_per_document", kProductsPerDocument);
    record->SetNumber("workload_queries", kNumQueries);
    record->SetNumber("evals_per_mode", kRepeats * kNumDocuments);
    record->SetNumber("routed_total_ns",
                      static_cast<double>(routed_total_ns));
    record->SetNumber("naive_total_ns",
                      static_cast<double>(naive_total_ns));
    record->SetNumber("native_total_ns",
                      static_cast<double>(native_total_ns));
    record->SetNumber("router_vs_naive_speedup", router_vs_naive_speedup);
    record->SetNumber("router_overhead_ratio", router_overhead_ratio);
  }
}

// Micro-benchmarks for the default (google-benchmark) mode.

void BM_RoutedExecute(benchmark::State& state) {
  DocumentStore store;
  BuildCorpus(&store);
  PlanPtr plan =
      Plan::Compile(Language::kXPath, kQueries[state.range(0)]).value();
  treeq::DocumentPtr doc = store.Get(store.Names().front()).value();
  ExecContext unbounded;
  ExecuteOptions options;
  for (auto _ : state) {
    auto r = plan->Execute(*doc, unbounded, options);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_RoutedExecute)->DenseRange(0, kNumQueries - 1);

void BM_RouteDecisionOnly(benchmark::State& state) {
  DocumentStore store;
  BuildCorpus(&store);
  PlanPtr plan = Plan::Compile(Language::kXPath, kQueries[0]).value();
  treeq::DocumentPtr doc = store.Get(store.Names().front()).value();
  for (auto _ : state) {
    std::string table = plan->ExplainRouting(*doc);
    benchmark::DoNotOptimize(table.size());
  }
}
BENCHMARK(BM_RouteDecisionOnly);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    return treeq::benchjson::WriteRecord(
        json_path, "bench_plan_routing",
        [](treeq::benchjson::Record* record) { RunRoutingBench(record); });
  }
  RunRoutingBench(nullptr);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
