// Serving-engine throughput: queries/second of the Executor worker pool as
// the thread count grows (1, 2, 4, 8) on a mixed XPath + CQ + datalog + FO
// workload over catalog documents large enough that every request queues
// to a worker, and the latency gap between a PlanCache hit and a cold
// compile. The obs counters in the --json record prove the
// two headline claims: per-evaluation work counters stay exact under
// concurrency (shadow counters merge losslessly), and a cache hit leaves
// engine.plan.compiles untouched.
//
// Scaling caveat: qps-vs-threads is hardware-dependent — on a single-core
// container every thread count serves at the same rate. The record's meta
// carries hardware_concurrency so a reader can interpret the rows.

#include <benchmark/benchmark.h>
#include <time.h>

#include "bench_json.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "cache/eval_cache.h"
#include "cache/result_cache.h"
#include "engine/engine.h"
#include "fault/fault.h"
#include "obs/flight_recorder.h"
#include "obs/prometheus.h"
#include "tree/generator.h"
#include "util/random.h"

namespace {

using treeq::Language;
using treeq::engine::DocumentStore;
using treeq::engine::Executor;
using treeq::engine::Plan;
using treeq::engine::PlanCache;
using treeq::engine::PlanPtr;
using treeq::QueryResult;
using treeq::QueryRequest;

struct WorkloadQuery {
  Language language;
  const char* text;
};

// The mixed serving workload: two XPath paths, a Boolean CQ (dichotomy
// route), a k-ary CQ (Yannakakis enumeration), a TMNF datalog program, and
// a positive FO sentence (Corollary 5.2 route).
constexpr WorkloadQuery kWorkload[] = {
    {Language::kXPath, "/catalog/product[reviews/review]/name"},
    {Language::kXPath, "//review/rating5"},
    {Language::kCq, "Q() :- Child+(x, y), Lab_product(x), Lab_rating1(y)."},
    {Language::kCq, "Q(p, r) :- Child+(p, r), Lab_product(p), Lab_review(r)."},
    {Language::kDatalog,
     "Good(x) :- Lab_rating5(x).\nHasGood(x) :- Child(x, y), Good(y).\n"
     "?- HasGood."},
    {Language::kFo,
     "exists x . exists y . (Child(x, y) and Lab_review(x) and "
     "Lab_rating5(y))"},
};
constexpr int kNumQueries = static_cast<int>(std::size(kWorkload));

constexpr int kNumDocuments = 6;
constexpr int kProductsPerDocument = 120;
// The worker sweep's documents: large enough that the router scores every
// query of the mix above plan::kInlineCost (the Boolean CQ, the cheapest,
// at about 12,800), so each request is handed to a worker. On the
// 120-product documents the whole mix runs on the submitting thread.
constexpr int kSweepProductsPerDocument = 4000;
constexpr int kBatchRepeats = 8;  // requests = repeats * docs * queries

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void BuildCorpus(DocumentStore* store,
                 int products_per_document = kProductsPerDocument) {
  for (int d = 0; d < kNumDocuments; ++d) {
    treeq::Rng rng(static_cast<uint64_t>(1000 + d));
    treeq::CatalogOptions opts;
    opts.num_products = products_per_document;
    auto added = store->Add("catalog" + std::to_string(d),
                            treeq::CatalogDocument(&rng, opts));
    TREEQ_CHECK(added.ok());
  }
}

std::vector<PlanPtr> CompileWorkload() {
  std::vector<PlanPtr> plans;
  for (const WorkloadQuery& q : kWorkload) {
    auto plan = Plan::Compile(q.language, q.text);
    TREEQ_CHECK(plan.ok());
    plans.push_back(std::move(plan).value());
  }
  return plans;
}

std::vector<QueryRequest> BuildBatch(const DocumentStore& store,
                                const std::vector<PlanPtr>& plans) {
  std::vector<QueryRequest> requests;
  for (int rep = 0; rep < kBatchRepeats; ++rep) {
    for (const std::string& name : store.Names()) {
      for (const PlanPtr& plan : plans) {
        requests.push_back({plan, store.Get(name).value(), {}});
      }
    }
  }
  return requests;
}

/// CPU time of the whole process (every thread), in nanoseconds.
uint64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Builds the worker sweep's batch, checking that every request in it
/// queues to a worker rather than running on the submitting thread.
std::vector<QueryRequest> BuildQueuedBatch(DocumentStore* store) {
  BuildCorpus(store, kSweepProductsPerDocument);
  std::vector<PlanPtr> plans = CompileWorkload();
  for (const std::string& name : store->Names()) {
    treeq::DocumentPtr doc = store->Get(name).value();
    for (const PlanPtr& plan : plans) {
      TREEQ_CHECK(
          !plan->Route(*doc, treeq::ExecContext::Unbounded(), false)
               .run_inline);
    }
  }
  return BuildBatch(*store, plans);
}

/// Submits every request, then waits for every answer.
void RunAll(Executor* exec, const std::vector<QueryRequest>& batch) {
  std::vector<std::future<treeq::Result<QueryResult>>> futures;
  futures.reserve(batch.size());
  for (const QueryRequest& request : batch) {
    futures.push_back(exec->Submit(request).future);
  }
  for (auto& f : futures) TREEQ_CHECK(f.get().ok());
}

/// One timed RunAll on a fresh pool of `threads` workers. Returns qps.
double MeasureQps(const std::vector<QueryRequest>& batch, int threads,
                  uint64_t* wall_ns_out) {
  Executor exec(Executor::Options{.num_workers = threads,
                                  .queue_capacity = 64});
  uint64_t start = NowNs();
  RunAll(&exec, batch);
  uint64_t wall_ns = NowNs() - start;
  if (wall_ns_out != nullptr) *wall_ns_out = wall_ns;
  return static_cast<double>(batch.size()) * 1e9 /
         static_cast<double>(wall_ns);
}

/// A few RunAll passes on a fresh 1-worker pool, timed by the wall clock
/// and by the process's CPU clock. CPU time counts the submitting thread
/// and the worker alike, and a busy host does not inflate it.
struct Sample {
  double qps;
  uint64_t cpu_ns;
};
Sample MeasureSample(const std::vector<QueryRequest>& batch) {
  constexpr int kPasses = 4;  // about 20 ms of work per sample
  Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 64});
  const uint64_t start = NowNs();
  const uint64_t cpu_start = ProcessCpuNs();
  for (int pass = 0; pass < kPasses; ++pass) RunAll(&exec, batch);
  const uint64_t cpu_ns = ProcessCpuNs() - cpu_start;
  const uint64_t wall_ns = NowNs() - start;
  return {static_cast<double>(kPasses * batch.size()) * 1e9 /
              static_cast<double>(wall_ns),
          cpu_ns};
}

/// Overhead of mode B over mode A on `batch`: kAlternations interleaved
/// pairs, each pair's order flipped from the last so drift cancels. The
/// ratio is the median over the pairs of cpu(A) / cpu(B) — B's throughput
/// per CPU-second relative to A's; 1.0 means B costs nothing. Also
/// returns each mode's best wall-clock qps.
struct Overhead {
  double ratio;
  double a_qps;
  double b_qps;
};
template <typename SetA, typename SetB>
Overhead MeasureOverhead(const std::vector<QueryRequest>& batch, SetA set_a,
                         SetB set_b) {
  constexpr int kAlternations = 21;
  Overhead out{0, 0, 0};
  std::vector<double> ratios;
  for (int i = 0; i < kAlternations; ++i) {
    Sample a, b;
    if (i % 2 == 0) {
      set_a();
      a = MeasureSample(batch);
      set_b();
      b = MeasureSample(batch);
    } else {
      set_b();
      b = MeasureSample(batch);
      set_a();
      a = MeasureSample(batch);
    }
    ratios.push_back(static_cast<double>(a.cpu_ns) /
                     static_cast<double>(std::max<uint64_t>(1, b.cpu_ns)));
    out.a_qps = std::max(out.a_qps, a.qps);
    out.b_qps = std::max(out.b_qps, b.qps);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kAlternations / 2,
                   ratios.end());
  out.ratio = ratios[kAlternations / 2];
  return out;
}

void RunThroughputSweep(treeq::benchjson::Record* record) {
  DocumentStore store;
  BuildCorpus(&store);
  std::vector<PlanPtr> plans = CompileWorkload();
  std::vector<QueryRequest> batch = BuildBatch(store, plans);

  DocumentStore sweep_store;
  std::vector<QueryRequest> sweep_batch = BuildQueuedBatch(&sweep_store);

  std::printf("=== engine throughput: qps vs worker threads ===\n");
  std::printf("corpus: %d catalog documents, %d products each\n",
              kNumDocuments, kSweepProductsPerDocument);
  std::printf("batch:  %zu requests (%d-query mix x %d docs x %d repeats)\n",
              sweep_batch.size(), kNumQueries, kNumDocuments, kBatchRepeats);
  std::printf("hardware_concurrency: %u\n",
              std::thread::hardware_concurrency());
  std::printf("every request scores above plan::kInlineCost (%llu) and "
              "queues to a worker; on the %d-product documents used below, "
              "the cheap mix runs inline on the submitting thread\n\n",
              static_cast<unsigned long long>(treeq::plan::kInlineCost),
              kProductsPerDocument);

  // Warm-up pass so first-touch effects don't land on the 1-thread row.
  (void)MeasureQps(sweep_batch, 1, nullptr);

  double qps1 = 0;
  for (int threads : {1, 2, 4, 8}) {
    uint64_t wall_ns = 0;
    double qps = MeasureQps(sweep_batch, threads, &wall_ns);
    if (threads == 1) qps1 = qps;
    std::printf("threads=%d  wall=%8.2f ms  qps=%9.0f  speedup=%.2fx\n",
                threads, static_cast<double>(wall_ns) / 1e6, qps,
                qps / qps1);
    if (record != nullptr) {
      record->AddRow({{"threads", static_cast<double>(threads)},
                      {"requests", static_cast<double>(sweep_batch.size())},
                      {"wall_ns", static_cast<double>(wall_ns)},
                      {"qps", qps},
                      {"speedup_vs_1_thread", qps / qps1}});
    }
  }

  // --- Plan-cache hit vs cold compile -----------------------------------
  treeq::obs::StatsRegistry& reg = treeq::obs::StatsRegistry::Global();
  constexpr int kReps = 2000;

  uint64_t cold_start = NowNs();
  for (int i = 0; i < kReps; ++i) {
    const WorkloadQuery& q = kWorkload[i % kNumQueries];
    auto plan = Plan::Compile(q.language, q.text);
    TREEQ_CHECK(plan.ok());
    benchmark::DoNotOptimize(plan);
  }
  double cold_ns = static_cast<double>(NowNs() - cold_start) / kReps;

  PlanCache cache(32);
  for (const WorkloadQuery& q : kWorkload) {
    TREEQ_CHECK(cache.GetOrCompile(q.language, q.text).ok());
  }
  uint64_t compiles_before = reg.CounterValue("engine.plan.compiles");
  uint64_t hit_start = NowNs();
  for (int i = 0; i < kReps; ++i) {
    const WorkloadQuery& q = kWorkload[i % kNumQueries];
    auto plan = cache.GetOrCompile(q.language, q.text);
    TREEQ_CHECK(plan.ok());
    benchmark::DoNotOptimize(plan);
  }
  double hit_ns = static_cast<double>(NowNs() - hit_start) / kReps;
  uint64_t compiles_during_hits =
      reg.CounterValue("engine.plan.compiles") - compiles_before;

  std::printf("\n=== plan cache: hit vs cold compile (avg over %d) ===\n",
              kReps);
  std::printf("cold compile: %8.0f ns/query\n", cold_ns);
  std::printf("cache hit:    %8.0f ns/query  (%.1fx faster)\n", hit_ns,
              cold_ns / hit_ns);
  std::printf("compiles during hit loop: %llu (cache hits skip the parser)\n",
              static_cast<unsigned long long>(compiles_during_hits));
  TREEQ_CHECK(compiles_during_hits == 0);
  TREEQ_CHECK(cache.hits() >= static_cast<uint64_t>(kReps));

  // --- Bounded execution: overhead, deadline and cancel latency ---------
  // (1) Overhead: the same batch submitted with a far deadline + huge
  // budget attached, so every evaluator charge runs the bounded (but
  // never-tripping) path. The qps delta is the whole-engine cost of the
  // ExecContext plumbing, against the same batch submitted plain (after a
  // warm-up pass: the sweep above ran other documents).
  (void)MeasureQps(batch, 1, nullptr);
  const double plain_qps = MeasureQps(batch, 1, nullptr);
  double bounded_qps;
  {
    Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 64});
    treeq::engine::SubmitOptions opts;
    opts.timeout = std::chrono::hours(1);
    opts.visit_budget = UINT64_MAX - 1;
    uint64_t start = NowNs();
    std::vector<treeq::engine::Submission> submissions;
    submissions.reserve(batch.size());
    for (const QueryRequest& r : batch) {
      submissions.push_back(exec.Submit({r.plan, r.document, opts}));
    }
    for (auto& s : submissions) TREEQ_CHECK(s.future.get().ok());
    uint64_t wall_ns = NowNs() - start;
    bounded_qps = static_cast<double>(batch.size()) * 1e9 /
                  static_cast<double>(wall_ns);
  }

  // (2) Deadline/cancel latency on a request that would otherwise run for
  // seconds (naive FO, cubic in document size): time from the abort signal
  // to the future completing.
  PlanPtr costly =
      Plan::Compile(Language::kFo,
                    "forall x . forall y . forall z . "
                    "(not Child(x, y) or not Child(y, z) or not Lab_zzz(x))")
          .value();
  treeq::DocumentPtr big_doc = store.Get(store.Names().front()).value();
  constexpr int kAbortReps = 15;
  std::vector<uint64_t> deadline_ns, cancel_ns;
  {
    Executor exec(Executor::Options{.num_workers = 1, .queue_capacity = 8});
    for (int i = 0; i < kAbortReps; ++i) {
      treeq::engine::SubmitOptions opts;
      opts.timeout = std::chrono::milliseconds(10);
      uint64_t start = NowNs();
      treeq::engine::Submission s = exec.Submit({costly, big_doc, opts});
      treeq::Result<QueryResult> r = s.future.get();
      deadline_ns.push_back(NowNs() - start);
      TREEQ_CHECK(!r.ok());
    }
    for (int i = 0; i < kAbortReps; ++i) {
      treeq::engine::SubmitOptions opts;
      opts.visit_budget = UINT64_MAX - 1;
      treeq::engine::Submission s = exec.Submit({costly, big_doc, opts});
      // Let the worker get well into the evaluation before cancelling.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      uint64_t start = NowNs();
      s.Cancel();
      treeq::Result<QueryResult> r = s.future.get();
      cancel_ns.push_back(NowNs() - start);
      TREEQ_CHECK(!r.ok());
    }
  }
  auto median = [](std::vector<uint64_t> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return static_cast<double>(v[v.size() / 2]);
  };
  double deadline_p50 = median(deadline_ns);
  double cancel_p50 = median(cancel_ns);

  std::printf("\n=== bounded execution ===\n");
  std::printf("bounded submit qps (1 thread): %9.0f  (plain: %9.0f, %.1f%%)\n",
              bounded_qps, plain_qps, 100.0 * bounded_qps / plain_qps);
  std::printf("10ms-deadline completion p50:  %8.2f ms\n", deadline_p50 / 1e6);
  std::printf("cancel-to-future-ready p50:    %8.2f ms\n", cancel_p50 / 1e6);

  // --- Flight recorder overhead -----------------------------------------
  // The same 1-thread batch with the recorder off and on: the on-run pays
  // for one QueryProfile (a few string copies + a sharded ring insert) per
  // request. Interleaved off/on pairs compared in CPU time, median ratio,
  // so neither scheduler noise nor drift masquerades as recorder cost.
  treeq::obs::FlightRecorder& recorder = treeq::obs::FlightRecorder::Global();
  treeq::obs::FlightRecorder::Options rec_options;  // 256 deep, auto slow
  const Overhead rec = MeasureOverhead(
      batch, [&] { recorder.Disable(); },
      [&] { recorder.Enable(rec_options); });
  const uint64_t recorder_recorded = recorder.recorded();
  const uint64_t recorder_slow = recorder.slow_recorded();
  recorder.Disable();
  const double recorder_off_qps = rec.a_qps;
  const double recorder_on_qps = rec.b_qps;
  const double recorder_ratio = rec.ratio;

  std::printf("\n=== flight recorder overhead (1 thread) ===\n");
  std::printf("recorder off: %9.0f qps (best)\n", recorder_off_qps);
  std::printf("recorder on:  %9.0f qps (best; %llu profiles, %llu slow)\n",
              recorder_on_qps,
              static_cast<unsigned long long>(recorder_recorded),
              static_cast<unsigned long long>(recorder_slow));
  std::printf("on/off throughput per CPU-second: %.3f (median of pairs)\n",
              recorder_ratio);

  // --- Fault-point overhead ---------------------------------------------
  // The same 1-thread batch with the registry disarmed (the shipping
  // state: every point is one relaxed atomic load) vs armed with a rule
  // on a point no seam ever hits ("bench.idle"): the armed run takes the
  // full Hit() slow path — hash, hit counter, rule scan — at every
  // compiled-in point without ever injecting, so armed/disarmed is an
  // upper bound on what the compiled-in points can cost at all. The two
  // modes are measured in interleaved pairs and compared in CPU time
  // (median ratio), so neither machine drift nor a busy host can skew
  // the ratio; CI gates it >= 0.98. The true
  // disarmed-vs-TREEQ_FAULT_DISABLED comparison needs two builds and
  // lives in the nightly fault-storm CI job.
  treeq::fault::FaultPlan idle_plan;
  idle_plan.seed = 1;
  treeq::fault::FaultRule idle_rule;
  idle_rule.point = "bench.idle";
  idle_plan.rules.push_back(idle_rule);
  const Overhead fault = MeasureOverhead(
      batch, [] { treeq::fault::FaultRegistry::Global().Disarm(); },
      [&] { treeq::fault::FaultRegistry::Global().Arm(idle_plan); });
  treeq::fault::FaultRegistry::Global().Disarm();
  const double fault_disarmed_qps = fault.a_qps;
  const double fault_armed_idle_qps = fault.b_qps;
  const double fault_overhead_ratio = fault.ratio;

  std::printf("\n=== fault-point overhead (1 thread) ===\n");
  std::printf("disarmed:     %9.0f qps (best)\n", fault_disarmed_qps);
  std::printf("armed (idle): %9.0f qps (best)\n", fault_armed_idle_qps);
  std::printf("armed/disarmed throughput per CPU-second: %.3f (median of "
              "pairs)\n",
              fault_overhead_ratio);

  // --- Cross-query reuse: 90%-repeated mix, caches on vs off ------------
  // Each distinct (plan, document) pair appears 10 times in the mix, so a
  // result cache can serve 90% of submissions from memory. The off mode
  // runs the identical mix through a cacheless executor; the speedup is
  // the headline cross-query-reuse claim (gated >= 3x in CI). Best-of-3
  // per mode; the caches persist across the on-mode repetitions, so the
  // best on-run measures the fully warm steady state.
  double cache_off_qps = 0;
  double cache_on_qps = 0;
  uint64_t result_cache_hits = 0;
  {
    std::vector<QueryRequest> mix;
    for (int rep = 0; rep < 10; ++rep) {
      for (const std::string& name : store.Names()) {
        for (const PlanPtr& plan : plans) {
          mix.push_back({plan, store.Get(name).value(), {}});
        }
      }
    }
    for (int i = 0; i < 3; ++i) {
      cache_off_qps = std::max(cache_off_qps, MeasureQps(mix, 1, nullptr));
    }
    treeq::cache::EvalCache eval_cache;
    treeq::cache::ResultCache result_cache;
    for (int i = 0; i < 3; ++i) {
      Executor exec(Executor::Options{.num_workers = 1,
                                      .queue_capacity = 64,
                                      .eval_cache = &eval_cache,
                                      .result_cache = &result_cache,
                                      .singleflight = true});
      uint64_t start = NowNs();
      RunAll(&exec, mix);
      uint64_t wall_ns = NowNs() - start;
      cache_on_qps = std::max(cache_on_qps,
                              static_cast<double>(mix.size()) * 1e9 /
                                  static_cast<double>(wall_ns));
    }
    result_cache_hits = result_cache.hits();
  }
  const double cache_hot_speedup = cache_on_qps / cache_off_qps;

  std::printf("\n=== cross-query reuse: 90%%-repeated mix (1 thread) ===\n");
  std::printf("caches off: %9.0f qps\n", cache_off_qps);
  std::printf("caches on:  %9.0f qps  (%.2fx; %llu result-cache hits)\n",
              cache_on_qps, cache_hot_speedup,
              static_cast<unsigned long long>(result_cache_hits));

  // --- Cross-dialect canonical aliasing ---------------------------------
  // Four spellings of ONE semantic query (XPath, two CQ alpha-variants,
  // datalog). With text-keyed caches each spelling would warm its own
  // entry; with canonical-hash keys all four share one PlanCache entry
  // and one ResultCache entry per document, so a mix that rotates through
  // the spellings hits exactly as often as a mix that repeats one text.
  const WorkloadQuery kAliases[] = {
      {Language::kXPath, "//product//rating5"},
      {Language::kCq,
       "Q(y) :- Child+(w, x), Child+(x, y), Lab_product(x), "
       "Lab_rating5(y)."},
      {Language::kCq,
       "Q(b) :- Lab_rating5(b), Child+(a, b), Child+(c, a), "
       "Lab_product(a)."},
      {Language::kDatalog,
       "Q(y) :- Child+(w, x), Child+(x, y), Lab_product(x), "
       "Lab_rating5(y). ?- Q."},
  };
  constexpr int kNumAliases = static_cast<int>(std::size(kAliases));
  PlanCache alias_cache(32);
  std::vector<PlanPtr> alias_plans;
  for (const WorkloadQuery& q : kAliases) {
    auto plan = alias_cache.GetOrCompile(q.language, q.text);
    TREEQ_CHECK(plan.ok());
    alias_plans.push_back(std::move(plan).value());
  }
  const uint64_t plan_canonical_hits = alias_cache.canonical_hits();
  TREEQ_CHECK(plan_canonical_hits == kNumAliases - 1);
  TREEQ_CHECK(alias_cache.size() == 1);

  // Sequential submit-and-wait, so each request sees every earlier insert
  // (a RunAll looks everything up before the first result lands, which
  // would report zero intra-batch hits regardless of keying).
  auto measure_hit_rate = [&](const std::vector<QueryRequest>& mix,
                              double* qps_out) {
    treeq::cache::ResultCache rc;
    Executor exec(Executor::Options{.num_workers = 1,
                                    .queue_capacity = 64,
                                    .result_cache = &rc});
    uint64_t start = NowNs();
    for (const QueryRequest& r : mix) {
      TREEQ_CHECK(exec.Submit(r).future.get().ok());
    }
    uint64_t wall_ns = NowNs() - start;
    *qps_out = static_cast<double>(mix.size()) * 1e9 /
               static_cast<double>(wall_ns);
    return static_cast<double>(rc.hits()) /
           static_cast<double>(rc.hits() + rc.misses());
  };

  constexpr int kAliasRepeats = 10;
  std::vector<QueryRequest> cross_mix, same_mix;
  for (int rep = 0; rep < kAliasRepeats; ++rep) {
    for (const std::string& name : store.Names()) {
      for (const PlanPtr& plan : alias_plans) {
        cross_mix.push_back({plan, store.Get(name).value(), {}});
      }
      for (int a = 0; a < kNumAliases; ++a) {
        same_mix.push_back({alias_plans[0], store.Get(name).value(), {}});
      }
    }
  }
  double cross_qps = 0, same_qps = 0;
  const double cross_dialect_hit_rate =
      measure_hit_rate(cross_mix, &cross_qps);
  const double same_text_hit_rate = measure_hit_rate(same_mix, &same_qps);
  // The headline claim: rotating dialects costs no hit rate at all.
  TREEQ_CHECK(cross_dialect_hit_rate >= same_text_hit_rate - 1e-9);

  std::printf("\n=== cross-dialect canonical aliasing (1 thread) ===\n");
  std::printf("plan cache: %d spellings -> 1 entry (%llu canonical hits)\n",
              kNumAliases,
              static_cast<unsigned long long>(plan_canonical_hits));
  std::printf("cross-dialect mix: hit rate %.3f  (%9.0f qps)\n",
              cross_dialect_hit_rate, cross_qps);
  std::printf("same-text mix:     hit rate %.3f  (%9.0f qps)\n",
              same_text_hit_rate, same_qps);

  if (record != nullptr) {
    record->SetNumber("bounded_qps_1_thread", bounded_qps);
    record->SetNumber("bounded_vs_plain_ratio", bounded_qps / plain_qps);
    record->SetNumber("deadline_10ms_completion_ns_p50", deadline_p50);
    record->SetNumber("cancel_latency_ns_p50", cancel_p50);
    record->SetNumber("num_documents", kNumDocuments);
    record->SetNumber("products_per_document", kProductsPerDocument);
    record->SetNumber("sweep_products_per_document",
                      kSweepProductsPerDocument);
    record->SetNumber("batch_requests", static_cast<double>(batch.size()));
    record->SetNumber("workload_queries", kNumQueries);
    record->SetNumber("cold_compile_ns_avg", cold_ns);
    record->SetNumber("cache_hit_ns_avg", hit_ns);
    record->SetNumber("cache_hit_speedup", cold_ns / hit_ns);
    record->SetNumber("compiles_during_hit_loop",
                      static_cast<double>(compiles_during_hits));
    record->SetNumber("recorder_off_qps", recorder_off_qps);
    record->SetNumber("recorder_on_qps", recorder_on_qps);
    record->SetNumber("recorder_overhead_ratio", recorder_ratio);
    record->SetNumber("recorder_profiles_recorded",
                      static_cast<double>(recorder_recorded));
    record->SetNumber("cache_off_qps", cache_off_qps);
    record->SetNumber("cache_on_qps", cache_on_qps);
    record->SetNumber("cache_hot_speedup", cache_hot_speedup);
    record->SetNumber("cache_result_hits",
                      static_cast<double>(result_cache_hits));
    record->SetNumber("plan_cache_canonical_hits",
                      static_cast<double>(plan_canonical_hits));
    record->SetNumber("cross_dialect_hit_rate", cross_dialect_hit_rate);
    record->SetNumber("same_text_hit_rate", same_text_hit_rate);
    record->SetNumber("fault_disarmed_qps", fault_disarmed_qps);
    record->SetNumber("fault_armed_idle_qps", fault_armed_idle_qps);
    record->SetNumber("fault_overhead_ratio", fault_overhead_ratio);
  }
}

/// Removes `--metrics-out=<path>` from the arguments (mirrors
/// ExtractJsonPath) and returns the path, or "" when absent.
std::string ExtractMetricsPath(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    constexpr const char kPrefix[] = "--metrics-out=";
    if (std::strncmp(argv[i], kPrefix, sizeof(kPrefix) - 1) == 0) {
      path = argv[i] + sizeof(kPrefix) - 1;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

/// Writes the registry's Prometheus exposition to `path`, if requested.
int WriteMetrics(const std::string& path) {
  if (path.empty()) return 0;
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  treeq::obs::ExportPrometheus(os);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

// Micro-benchmarks for the default (google-benchmark) mode.

void BM_ExecutorBatch(benchmark::State& state) {
  DocumentStore store;
  std::vector<QueryRequest> batch = BuildQueuedBatch(&store);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Executor exec(
        Executor::Options{.num_workers = threads, .queue_capacity = 64});
    RunAll(&exec, batch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_ExecutorBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

void BM_PlanColdCompile(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    const WorkloadQuery& q = kWorkload[i++ % kNumQueries];
    auto plan = Plan::Compile(q.language, q.text);
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_PlanColdCompile);

void BM_PlanCacheHit(benchmark::State& state) {
  PlanCache cache(32);
  for (const WorkloadQuery& q : kWorkload) {
    auto warm = cache.GetOrCompile(q.language, q.text);
    TREEQ_CHECK(warm.ok());
  }
  int i = 0;
  for (auto _ : state) {
    const WorkloadQuery& q = kWorkload[i++ % kNumQueries];
    auto plan = cache.GetOrCompile(q.language, q.text);
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_PlanCacheHit);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  const std::string metrics_path = ExtractMetricsPath(&argc, argv);
  if (!json_path.empty()) {
    const int rc = treeq::benchjson::WriteRecord(
        json_path, "bench_engine_throughput",
        [](treeq::benchjson::Record* record) { RunThroughputSweep(record); });
    if (rc != 0) return rc;
    return WriteMetrics(metrics_path);
  }
  RunThroughputSweep(nullptr);
  if (const int rc = WriteMetrics(metrics_path); rc != 0) return rc;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
