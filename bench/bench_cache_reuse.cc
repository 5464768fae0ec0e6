// Cross-query reuse: served qps with the evaluation/result caches on
// versus off, swept across repeated-work fractions. Each sweep point
// builds a fixed-size request mix whose distinct-key count sets the
// achievable result-cache hit rate (0%, 50%, 90%, 99%), then runs the
// identical shuffled mix through a cacheless executor and through one
// wired with an EvalCache + ResultCache + singleflight. Two claims land
// in the --json record:
//
//   - hot speedup grows with the repeat fraction (the 99% row is the
//     steady-state serving case: nearly every submission is answered
//     from the result cache);
//   - the all-miss row gates the cold path: on a mix where every
//     result-cache lookup misses, the cache-wired executor must stay
//     within noise of the cacheless one (meta.cold_ratio, gated > 0.85
//     in CI). Axis images can still be shared across the six query texts
//     on a document, so this bounds bookkeeping overhead from below —
//     any eval-cache benefit only raises the ratio.
//
// Hit rates are constructed, not sampled: a mix of N requests over D
// distinct (plan, document) keys executes exactly D evaluations — every
// repeat is served either a result-cache hit or an in-flight collapse,
// depending on whether the first occurrence has finished when the repeat
// is submitted (capacities are sized so nothing evicts). The record's
// per-row executions (result-cache inserts) proves the reuse rate.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "cache/eval_cache.h"
#include "cache/result_cache.h"
#include "engine/engine.h"
#include "tree/generator.h"
#include "util/random.h"

namespace {

using treeq::Language;
using treeq::engine::DocumentStore;
using treeq::engine::Executor;
using treeq::engine::Plan;
using treeq::engine::PlanPtr;
using treeq::QueryResult;
using treeq::QueryRequest;

// The per-document query set: each (query, document) pair is one distinct
// result-cache key, so D = |queries| x |documents used by the sweep point|.
constexpr const char* kQueries[] = {
    "/catalog/product[reviews/review]/name",
    "//review/rating5",
    "//product/price",
    "/catalog/product/reviews",
    "//name",
    "//product[price]/reviews/review",
};
constexpr int kNumQueries = static_cast<int>(std::size(kQueries));

// 600 requests per sweep point; the distinct-key count D = 600 / repeats
// dials the hit rate to (repeats - 1) / repeats.
constexpr int kRequestsPerMix = 600;
constexpr int kMaxDocuments = kRequestsPerMix / kNumQueries;  // 0%-hit row
// Serving-sized documents: evaluations must cost enough that the sweep
// measures reuse, not allocator noise — and the cold-path gate compares
// bookkeeping overhead against realistic per-request work.
constexpr int kProductsPerDocument = 120;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void BuildCorpus(DocumentStore* store) {
  for (int d = 0; d < kMaxDocuments; ++d) {
    treeq::Rng rng(static_cast<uint64_t>(7000 + d));
    treeq::CatalogOptions opts;
    opts.num_products = kProductsPerDocument;
    auto added = store->Add("doc" + std::to_string(d),
                            treeq::CatalogDocument(&rng, opts));
    TREEQ_CHECK(added.ok());
  }
}

std::vector<PlanPtr> CompileQueries() {
  std::vector<PlanPtr> plans;
  for (const char* text : kQueries) {
    auto plan = Plan::Compile(Language::kXPath, text);
    TREEQ_CHECK(plan.ok());
    plans.push_back(std::move(plan).value());
  }
  return plans;
}

/// A shuffled mix of kRequestsPerMix requests over `documents` distinct
/// documents: D = kNumQueries * documents distinct keys, each repeated
/// kRequestsPerMix / D times. Shuffling interleaves hits and misses so a
/// cached run measures the steady mixed path, not a miss-phase followed by
/// a hit-phase.
std::vector<QueryRequest> BuildMix(const DocumentStore& store,
                              const std::vector<PlanPtr>& plans,
                              int documents, int* distinct_out) {
  const int distinct = kNumQueries * documents;
  const int repeats = kRequestsPerMix / distinct;
  TREEQ_CHECK(repeats * distinct == kRequestsPerMix);
  std::vector<QueryRequest> mix;
  mix.reserve(static_cast<size_t>(kRequestsPerMix));
  for (int rep = 0; rep < repeats; ++rep) {
    for (int d = 0; d < documents; ++d) {
      treeq::DocumentPtr doc = store.Get("doc" + std::to_string(d)).value();
      for (const PlanPtr& plan : plans) {
        mix.push_back({plan, doc, {}});
      }
    }
  }
  treeq::Rng rng(42);
  std::shuffle(mix.begin(), mix.end(), rng.engine());
  if (distinct_out != nullptr) *distinct_out = distinct;
  return mix;
}

/// Submits the whole mix, then waits for every answer.
double MeasureQps(const std::vector<QueryRequest>& mix, Executor* exec) {
  uint64_t start = NowNs();
  std::vector<std::future<treeq::Result<QueryResult>>> futures;
  futures.reserve(mix.size());
  for (const QueryRequest& request : mix) {
    futures.push_back(exec->Submit(request).future);
  }
  for (auto& f : futures) TREEQ_CHECK(f.get().ok());
  uint64_t wall_ns = NowNs() - start;
  return static_cast<double>(mix.size()) * 1e9 /
         static_cast<double>(wall_ns);
}

/// Best-of-`reps` qps through a fresh cacheless 1-worker executor.
double UncachedQps(const std::vector<QueryRequest>& mix, int reps) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 64});
    best = std::max(best, MeasureQps(mix, &exec));
  }
  return best;
}

/// Best-of-`reps` qps through a fully cache-wired 1-worker executor. Fresh
/// caches per rep: every rep replays the same cold-start-to-warm mix, so
/// the measurement includes the misses that populate the caches.
double CachedQps(const std::vector<QueryRequest>& mix, int reps,
                 uint64_t* executions_out, uint64_t* hits_out,
                 uint64_t* eval_hits_out) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    treeq::cache::EvalCache eval_cache;
    treeq::cache::ResultCache result_cache;
    Executor exec(Executor::Options{.num_workers = 1,
                                    .queue_capacity = 64,
                                    .eval_cache = &eval_cache,
                                    .result_cache = &result_cache,
                                    .singleflight = true});
    double qps = MeasureQps(mix, &exec);
    if (qps > best) {
      best = qps;
      if (executions_out != nullptr) *executions_out = result_cache.inserts();
      if (hits_out != nullptr) *hits_out = result_cache.hits();
      if (eval_hits_out != nullptr) *eval_hits_out = eval_cache.hits();
    }
  }
  return best;
}

void RunReuseSweep(treeq::benchjson::Record* record) {
  DocumentStore store;
  BuildCorpus(&store);
  std::vector<PlanPtr> plans = CompileQueries();
  constexpr int kReps = 3;

  std::printf("=== cross-query reuse: qps vs repeated-work fraction ===\n");
  std::printf("corpus: up to %d catalog documents, %d products each\n",
              kMaxDocuments, kProductsPerDocument);
  std::printf("mix:    %d requests per sweep point, %d query texts\n\n",
              kRequestsPerMix, kNumQueries);

  // documents -> target hit rate: 100 -> 0%, 50 -> 50%, 10 -> 90%, 1 -> 99%.
  double cold_ratio = 0;
  for (int documents : {kMaxDocuments, kMaxDocuments / 2, 10, 1}) {
    int distinct = 0;
    std::vector<QueryRequest> mix =
        BuildMix(store, plans, documents, &distinct);
    const double target_rate =
        static_cast<double>(kRequestsPerMix - distinct) / kRequestsPerMix;

    double uncached_qps = UncachedQps(mix, kReps);
    uint64_t executions = 0;
    uint64_t result_hits = 0;
    uint64_t eval_hits = 0;
    double cached_qps =
        CachedQps(mix, kReps, &executions, &result_hits, &eval_hits);
    const double speedup = cached_qps / uncached_qps;
    if (documents == kMaxDocuments) cold_ratio = speedup;

    std::printf("hit-rate %4.0f%%  uncached %9.0f qps  cached %9.0f qps  "
                "(%5.2fx; %llu executions, %llu result hits, "
                "%llu eval hits)\n",
                100.0 * target_rate, uncached_qps, cached_qps, speedup,
                static_cast<unsigned long long>(executions),
                static_cast<unsigned long long>(result_hits),
                static_cast<unsigned long long>(eval_hits));
    // Every distinct key executes exactly once; every repeat is reused
    // (hit or collapse). A tiny tolerance absorbs the benign race where a
    // repeat misses the cache just as its leader completes and re-runs.
    TREEQ_CHECK(executions >= static_cast<uint64_t>(distinct));
    TREEQ_CHECK(executions <= static_cast<uint64_t>(distinct) + 8);
    if (record != nullptr) {
      record->AddRow({{"hit_rate", target_rate},
                      {"requests", static_cast<double>(kRequestsPerMix)},
                      {"distinct_keys", static_cast<double>(distinct)},
                      {"uncached_qps", uncached_qps},
                      {"cached_qps", cached_qps},
                      {"speedup", speedup},
                      {"executions", static_cast<double>(executions)},
                      {"result_cache_hits", static_cast<double>(result_hits)},
                      {"eval_cache_hits", static_cast<double>(eval_hits)}});
    }
  }

  std::printf("\ncold_ratio (all-miss mix, caches on / caches off): %.3f\n",
              cold_ratio);
  if (record != nullptr) {
    record->SetString("note",
                      "cold_ratio (all-miss mix) is the CI gate (> 0.85); "
                      "speedup rows scale with per-request evaluation cost "
                      "and are recorded, not gated");
    record->SetNumber("requests_per_mix", kRequestsPerMix);
    record->SetNumber("query_texts", kNumQueries);
    record->SetNumber("cold_ratio", cold_ratio);
  }
}

// Micro-benchmarks for the default (google-benchmark) mode: the per-request
// cost of a result-cache hit versus a full evaluation.

void BM_SubmitResultCacheHit(benchmark::State& state) {
  DocumentStore store;
  BuildCorpus(&store);
  treeq::DocumentPtr doc = store.Get("doc0").value();
  PlanPtr plan = Plan::Compile(Language::kXPath, kQueries[1]).value();
  treeq::cache::ResultCache result_cache;
  Executor exec(Executor::Options{.num_workers = 1,
                                  .result_cache = &result_cache});
  TREEQ_CHECK(exec.Submit({plan, doc, {}}).future.get().ok());  // warm
  for (auto _ : state) {
    auto r = exec.Submit({plan, doc, {}}).future.get();
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SubmitResultCacheHit);

void BM_SubmitUncached(benchmark::State& state) {
  DocumentStore store;
  BuildCorpus(&store);
  treeq::DocumentPtr doc = store.Get("doc0").value();
  PlanPtr plan = Plan::Compile(Language::kXPath, kQueries[1]).value();
  Executor exec(Executor::Options{.num_workers = 1});
  for (auto _ : state) {
    auto r = exec.Submit({plan, doc, {}}).future.get();
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SubmitUncached);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    return treeq::benchjson::WriteRecord(
        json_path, "bench_cache_reuse",
        [](treeq::benchjson::Record* record) { RunReuseSweep(record); });
  }
  RunReuseSweep(nullptr);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
