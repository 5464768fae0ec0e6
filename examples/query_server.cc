// A miniature query server built from the engine pieces: a DocumentStore
// holding the corpus, a PlanCache deduplicating compilation, and an
// Executor pool serving a mixed-language batch. Run it with no arguments;
// it prints each query's answer summary and the per-language serving
// counters from the obs registry.
//
// Observability flags:
//   --flight-recorder=N   keep the last N per-query profiles (and a slow
//                         ring) in the global FlightRecorder; dumps the
//                         table after serving
//   --slow-ms=T           slow-query threshold in milliseconds (0 = auto:
//                         p99 of engine.execute_ns)
//   --metrics-out=PATH    write the full registry in Prometheus text
//                         exposition format to PATH on exit (point a
//                         node_exporter textfile collector at it)
//   --fault-plan=LINE     arm the global FaultRegistry with a serialized
//                         FaultPlan (the one-line format storms print,
//                         e.g. 'seed=7 rule point=engine.queue.push
//                         code=Unavailable first=3 max=inf p=1 tag=any')
//                         to watch injected failures flow through the
//                         serving path end to end
//   --explain             compile the traffic and print each plan's
//                         explain line (classification | canonical IR +
//                         hash | eligible routes) plus the cost-ranked
//                         routing decision for one document, without
//                         executing any query

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "fault/fault.h"
#include "obs/flight_recorder.h"
#include "obs/prometheus.h"
#include "obs/stats.h"
#include "tree/generator.h"
#include "util/random.h"

using treeq::Language;
using treeq::engine::DocumentStore;
using treeq::engine::Executor;
using treeq::engine::PlanCache;
using treeq::engine::PlanPtr;
using treeq::QueryResult;
using treeq::engine::SubmitOptions;

namespace {

// The "client traffic": (language, query) pairs, with repeats — exactly
// what a cache is for.
struct Incoming {
  Language language;
  const char* text;
};

constexpr Incoming kTraffic[] = {
    {Language::kXPath, "/catalog/product[reviews/review]/name"},
    {Language::kXPath, "//review/rating5"},
    {Language::kXPath, "/catalog/product[reviews/review]/name"},  // repeat
    {Language::kCq, "Q() :- Child+(x, y), Lab_product(x), Lab_rating1(y)."},
    {Language::kCq, "Q(p, r) :- Child+(p, r), Lab_product(p), Lab_review(r)."},
    {Language::kDatalog,
     "Good(x) :- Lab_rating5(x).\nHasGood(x) :- Child(x, y), Good(y).\n"
     "?- HasGood."},
    {Language::kFo,
     "exists x . exists y . (Child(x, y) and Lab_review(x) and "
     "Lab_rating5(y))"},
    {Language::kXPath, "//review/rating5"},  // repeat
};

std::string OneLine(std::string text) {
  for (char& c : text) {
    if (c == '\n') c = ' ';
  }
  return text;
}

void DescribeResult(const QueryResult& result) {
  if (result.is_boolean()) {
    std::printf("%s", result.boolean() ? "true" : "false");
  } else if (result.is_tuples()) {
    std::printf("%zu tuples", result.tuples().size());
  } else {
    std::printf("%d nodes", result.nodes().size());
  }
}

/// --name=value flags; anything else aborts with usage.
struct Flags {
  size_t flight_recorder = 0;  // 0 = off
  double slow_ms = 0;          // 0 = auto threshold
  std::string metrics_out;
  std::string fault_plan;      // serialized FaultPlan; empty = disarmed
  bool explain = false;        // print plans, don't execute
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--flight-recorder=", 0) == 0) {
      flags->flight_recorder =
          static_cast<size_t>(std::atoll(arg.c_str() + 18));
    } else if (arg.rfind("--slow-ms=", 0) == 0) {
      flags->slow_ms = std::atof(arg.c_str() + 10);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      flags->metrics_out = arg.substr(14);
    } else if (arg.rfind("--fault-plan=", 0) == 0) {
      flags->fault_plan = arg.substr(13);
    } else if (arg == "--explain") {
      flags->explain = true;
    } else {
      std::fprintf(stderr,
                   "usage: query_server [--flight-recorder=N] [--slow-ms=T] "
                   "[--metrics-out=PATH] [--fault-plan=LINE] [--explain]\n");
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  treeq::obs::StatsRegistry& stats = treeq::obs::StatsRegistry::Global();
  stats.Reset();
  if (flags.flight_recorder > 0) {
    treeq::obs::FlightRecorder::Options options;
    options.capacity = flags.flight_recorder;
    options.slow_threshold_ns =
        static_cast<uint64_t>(flags.slow_ms * 1e6);
    treeq::obs::FlightRecorder::Global().Enable(options);
  }
  if (!flags.fault_plan.empty()) {
    treeq::Result<treeq::fault::FaultPlan> plan =
        treeq::fault::FaultPlan::Parse(flags.fault_plan);
    if (!plan.ok()) {
      std::fprintf(stderr, "--fault-plan: %s\n",
                   plan.status().ToString().c_str());
      return 2;
    }
    if (!treeq::fault::kFaultPointsCompiledIn) {
      std::fprintf(stderr,
                   "--fault-plan: built with TREEQ_FAULT_DISABLED; "
                   "no points to arm\n");
      return 2;
    }
    treeq::fault::FaultRegistry::Global().Arm(*plan);
    std::printf("fault plan armed: %s\n", plan->ToString().c_str());
  }

  // 1. Load the corpus. Each Document computes its TreeOrders when it is
  //    built, so the serving threads below share read-only data with no
  //    locking.
  DocumentStore store;
  for (int d = 0; d < 4; ++d) {
    treeq::Rng rng(static_cast<uint64_t>(42 + d));
    treeq::CatalogOptions opts;
    opts.num_products = 50;
    auto added = store.Add("catalog" + std::to_string(d),
                           treeq::CatalogDocument(&rng, opts));
    TREEQ_CHECK(added.ok());
  }
  std::printf("loaded %zu documents: ", store.size());
  for (const std::string& name : store.Names()) std::printf("%s ", name.c_str());
  std::printf("\n\n");

  // 2. Compile the traffic through the plan cache: repeated query text is
  //    parsed and classified once. Remember per plan whether it was a hit,
  //    so the per-query profiles attribute compile time to cold requests.
  PlanCache cache(/*capacity=*/16);
  std::vector<PlanPtr> plans;
  std::vector<bool> cache_hits;
  for (const Incoming& incoming : kTraffic) {
    bool was_hit = false;
    auto plan = cache.GetOrCompile(incoming.language, incoming.text,
                                   &was_hit);
    if (!plan.ok()) {  // a real server would return this to the client
      std::printf("rejected %-7s %s\n  -> %s\n",
                  LanguageName(incoming.language), incoming.text,
                  plan.status().ToString().c_str());
      continue;
    }
    plans.push_back(std::move(plan).value());
    cache_hits.push_back(was_hit);
  }
  std::printf("compiled %zu requests through the cache: %llu hits, %llu "
              "misses, %llu canonical aliases\n\n",
              plans.size(), static_cast<unsigned long long>(cache.hits()),
              static_cast<unsigned long long>(cache.misses()),
              static_cast<unsigned long long>(cache.canonical_hits()));

  // --explain: print each plan's compile-time classification, canonical
  // IR + hash, and the cost-ranked routing against one document (the
  // native engine is starred) — then exit without executing anything.
  if (flags.explain) {
    treeq::DocumentPtr sample = store.Get(store.Names().front()).value();
    for (const PlanPtr& plan : plans) {
      std::printf("[%-7s] %s\n  %s\n  %s\n\n",
                  LanguageName(plan->language()),
                  OneLine(plan->text()).c_str(), plan->Explain().c_str(),
                  plan->ExplainRouting(*sample).c_str());
    }
    return 0;
  }

  // 3. Serve every (plan, document) pair on a worker pool.
  Executor executor(Executor::Options{.num_workers = 4});
  std::vector<std::future<treeq::Result<QueryResult>>> futures;
  for (const std::string& name : store.Names()) {
    for (size_t p = 0; p < plans.size(); ++p) {
      SubmitOptions opts;
      opts.plan_cache_hit = cache_hits[p];
      futures.push_back(
          executor.Submit({plans[p], store.Get(name).value(), opts})
              .future);
    }
  }

  size_t i = 0;
  for (const std::string& name : store.Names()) {
    std::printf("-- %s --\n", name.c_str());
    for (const PlanPtr& plan : plans) {
      treeq::Result<QueryResult> r = futures[i++].get();
      std::printf("  [%-7s] %-55.55s => ", LanguageName(plan->language()),
                  OneLine(plan->text()).c_str());
      if (r.ok()) {
        DescribeResult(*r);
      } else {
        std::printf("%s", r.status().ToString().c_str());
      }
      std::printf("\n");
    }
  }

  // 4. The registry saw every request — the workers' shadow counters were
  //    merged before each future became ready.
  std::printf("\n=== serving counters ===\n");
  for (const auto& [name, value] : stats.CounterValues()) {
    if (name.rfind("engine.", 0) == 0) {
      std::printf("%-32s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }

  // 5. The request-scoped views: the flight recorder's table and the
  //    Prometheus exposition of the whole registry.
  if (flags.flight_recorder > 0) {
    std::printf("\n=== flight recorder ===\n");
    std::ostringstream table;
    treeq::obs::FlightRecorder::Global().DumpTable(table);
    std::fputs(table.str().c_str(), stdout);
  }
  if (!flags.metrics_out.empty()) {
    std::ofstream out(flags.metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", flags.metrics_out.c_str());
      return 1;
    }
    treeq::obs::ExportPrometheus(out);
    std::printf("\nwrote Prometheus metrics to %s\n",
                flags.metrics_out.c_str());
  }
  return 0;
}
