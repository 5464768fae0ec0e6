#include "fault/storm.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/eval_cache.h"
#include "cache/result_cache.h"
#include "engine/document_store.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "obs/stats.h"
#include "tree/generator.h"
#include "util/random.h"

namespace treeq {
namespace fault {

namespace {

/// The query corpus: one plan per language route the engine serves, cheap
/// on a small catalog, so they run inline; plus two naive-FO sentences the
/// router scores above plan::kInlineCost, so they go to the workers. The
/// two sentences stop at their first witness and take well under a
/// millisecond on these catalogs — a storm runs hundreds of each.
struct CorpusQuery {
  Language language;
  const char* text;
};
constexpr CorpusQuery kCorpus[] = {
    {Language::kXPath, "/catalog/product[reviews/review]/name"},
    {Language::kXPath, "//review[rating5]"},
    {Language::kXPath, "//product/descendant::rating5"},
    {Language::kDatalog,
     "Good(x) :- Lab_rating5(x). HasGood(x) :- Child(x, y), Good(y). "
     "?- HasGood."},
    {Language::kCq, "Q() :- Child+(x, y), Lab_product(x), Lab_review(y)."},
    {Language::kCq,
     "Q(p, r) :- Child+(p, r), Lab_product(p), Lab_review(r)."},
    {Language::kFo,
     "exists x . exists y . (Child(x, y) and Lab_review(x) and "
     "Lab_rating5(y))"},
    {Language::kFo,
     "exists x . exists y . (Child(x, y) and Lab_review(x) and "
     "not Lab_rating5(y))"},
    {Language::kFo,
     "exists x . (Lab_product(x) and not exists y . (Child(x, y) and "
     "Lab_name(y)))"},
};
constexpr int kNumCorpusQueries =
    static_cast<int>(sizeof(kCorpus) / sizeof(kCorpus[0]));

constexpr int kNumDocuments = 3;

std::string DocName(int i) { return "doc" + std::to_string(i); }

Tree MakeCatalog(Rng* rng) {
  CatalogOptions opts;
  opts.num_products = static_cast<int>(rng->Uniform(16, 48));
  return CatalogDocument(rng, opts);
}

/// Deep answer equality across the three result shapes. QueryResult has no
/// operator== (metadata like `engine` legitimately differs between a
/// cached answer and a replay); the *answer* must still match bit for bit.
bool SameAnswer(const QueryResult& a, const QueryResult& b) {
  if (a.value.index() != b.value.index()) return false;
  if (a.is_boolean()) return a.boolean() == b.boolean();
  if (a.is_tuples()) return a.tuples() == b.tuples();
  return a.nodes() == b.nodes();
}

const char* AnswerShape(const QueryResult& r) {
  if (r.is_boolean()) return "bool";
  if (r.is_tuples()) return "tuples";
  return "nodes";
}

/// One tracked submission: enough to judge its future later.
struct TrackedSubmit {
  engine::Submission submission;
  engine::PlanPtr plan;
  DocumentPtr document;  // the exact handle submitted (pins the epoch)
  bool cancelled = false;
};

bool AllowedFailure(StatusCode code) {
  switch (code) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kCancelled:
      return true;
    default:
      return false;
  }
}

}  // namespace

FaultPlan PlanFromSeed(uint64_t seed, double probability) {
  FaultPlan plan;
  plan.seed = seed;
  // Independent generator stream from the workload RNGs (salted seed), so
  // plan shape and workload shape vary independently across seeds.
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  for (const std::string& point : KnownPoints()) {
    if (!rng.Bernoulli(0.5)) continue;
    FaultRule rule;
    rule.point = point;
    rule.probability = probability * (0.5 + rng.UniformReal());
    rule.first_hit = static_cast<uint64_t>(rng.Uniform(1, 40));
    if (rng.Bernoulli(0.3)) {
      rule.max_fires = static_cast<uint64_t>(rng.Uniform(1, 8));
    }
    plan.rules.push_back(std::move(rule));
  }
  if (plan.rules.empty()) {
    // Degenerate draw: storm with at least one live rule so every seed
    // actually injects something.
    FaultRule rule;
    rule.point = "engine.queue.pop";
    rule.probability = probability;
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

StormReport RunStorm(const StormOptions& options) {
  return RunStorm(options,
                  PlanFromSeed(options.seed, options.fault_probability));
}

StormReport RunStorm(const StormOptions& options, const FaultPlan& plan) {
  StormReport report;
  report.seed = options.seed;
  report.plan_line = plan.ToString();
  report.replay_line = "TREEQ_STORM_SEED=" + std::to_string(options.seed) +
                       " TREEQ_STORM_PLAN='" + report.plan_line + "'";

  // --- Stack under test -----------------------------------------------
  cache::EvalCacheOptions eval_opts;
  cache::EvalCache eval_cache(eval_opts);
  cache::ResultCacheOptions result_opts;
  cache::ResultCache result_cache(result_opts);
  engine::DocumentStore store;
  store.AddEvictionListener([&](uint64_t epoch) {
    eval_cache.InvalidateDocument(epoch);
    result_cache.InvalidateDocument(epoch);
  });
  {
    Rng corpus_rng(options.seed ^ 0xd0c5);
    for (int i = 0; i < kNumDocuments; ++i) {
      (void)store.Add(DocName(i), MakeCatalog(&corpus_rng));
    }
  }
  std::vector<engine::PlanPtr> plans;
  for (const CorpusQuery& q : kCorpus) {
    plans.push_back(engine::Plan::Compile(q.language, q.text).value());
  }

  engine::Executor::Options exec_opts;
  exec_opts.num_workers = options.num_workers;
  exec_opts.queue_capacity = options.queue_capacity;
  exec_opts.eval_cache = &eval_cache;
  exec_opts.result_cache = &result_cache;
  exec_opts.singleflight = true;
  engine::Executor executor(exec_opts);

#ifndef TREEQ_OBS_DISABLED
  obs::StatsRegistry& registry = obs::StatsRegistry::Global();
  const uint64_t submitted_before =
      registry.CounterValue("engine.exec.submitted");
  const uint64_t requests_before =
      registry.CounterValue("engine.exec.requests");
  const uint64_t inline_before =
      registry.CounterValue("engine.exec.inline_requests");
#endif
  const uint64_t result_hits_before = result_cache.hits();
  const uint64_t followers_before = executor.inflight().followers();

  // --- The storm -------------------------------------------------------
  FaultRegistry::Global().Arm(plan);

  std::mutex tracked_mu;
  std::vector<TrackedSubmit> tracked;
  std::atomic<uint64_t> submit_calls{0};
  const int shutdown_at = options.ops_per_thread / 2;

  auto client = [&](int thread_index) {
    Rng rng(options.seed * 0x100000001b3ull + 977u +
            static_cast<uint64_t>(thread_index));
    std::vector<TrackedSubmit> local;
    auto pick_request = [&]() -> std::optional<QueryRequest> {
      Result<DocumentPtr> doc =
          store.Get(DocName(static_cast<int>(rng.Uniform(0, kNumDocuments - 1))));
      if (!doc.ok()) return std::nullopt;  // lost a churn race; skip
      QueryRequest request;
      request.plan =
          plans[static_cast<size_t>(rng.Uniform(0, kNumCorpusQueries - 1))];
      request.document = *doc;
      return request;
    };
    for (int op = 0; op < options.ops_per_thread; ++op) {
      if (options.shutdown_race && thread_index == 0 && op == shutdown_at) {
        executor.Shutdown();
        continue;
      }
      const int64_t roll = rng.Uniform(0, 99);
      if (options.churn_documents && roll >= 85) {
        // Document churn: mostly Replace (new epoch, eviction fan-out);
        // occasionally a Remove immediately refilled by Add, so a
        // concurrent Get sees a brief NotFound window.
        const std::string name =
            DocName(static_cast<int>(rng.Uniform(0, kNumDocuments - 1)));
        if (rng.Bernoulli(0.3)) {
          (void)store.Remove(name);
          (void)store.Add(name, MakeCatalog(&rng));
        } else {
          (void)store.Replace(name, MakeCatalog(&rng));
        }
        continue;
      }
      if (roll >= 70) {
        // Burst: the same unbounded request submitted 2-5 times back to
        // back, so later copies collapse into the first's flight (or hit
        // its cached result).
        std::optional<QueryRequest> request = pick_request();
        if (!request) continue;
        const int burst = static_cast<int>(rng.Uniform(2, 5));
        submit_calls.fetch_add(static_cast<uint64_t>(burst),
                               std::memory_order_relaxed);
        for (int i = 0; i < burst; ++i) {
          TrackedSubmit t;
          t.plan = request->plan;
          t.document = request->document;
          t.submission = executor.Submit(*request);
          local.push_back(std::move(t));
        }
        continue;
      }
      std::optional<QueryRequest> request = pick_request();
      if (!request) continue;
      TrackedSubmit t;
      t.plan = request->plan;
      t.document = request->document;
      if (roll >= 50) {
        // Bounded submit: a tight deadline or budget, sometimes cancelled
        // immediately — the abort paths the exec.* points also exercise.
        if (rng.Bernoulli(0.5)) {
          request->options.timeout =
              std::chrono::microseconds(rng.Uniform(50, 4000));
        } else {
          request->options.visit_budget =
              static_cast<uint64_t>(rng.Uniform(16, 4096));
        }
        if (rng.Bernoulli(0.25)) t.cancelled = true;
      } else {
        // Unbounded submit: cache-eligible unless bypassing; sometimes
        // admission-controlled.
        if (rng.Bernoulli(0.15)) request->options.bypass_cache = true;
        if (rng.Bernoulli(0.3)) request->options.reject_when_full = true;
      }
      submit_calls.fetch_add(1, std::memory_order_relaxed);
      t.submission = executor.Submit(*std::move(request));
      if (t.cancelled) t.submission.Cancel();
      local.push_back(std::move(t));
    }
    std::lock_guard<std::mutex> lock(tracked_mu);
    for (TrackedSubmit& t : local) tracked.push_back(std::move(t));
  };

  std::vector<std::thread> clients;
  for (int i = 0; i < options.num_client_threads; ++i) {
    clients.emplace_back(client, i);
  }
  for (std::thread& c : clients) c.join();

  // --- Invariant: no broken promises ----------------------------------
  report.submits = submit_calls.load(std::memory_order_relaxed);
  const auto wait_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  size_t unresolved = 0;
  for (TrackedSubmit& t : tracked) {
    if (t.submission.future.wait_until(wait_deadline) !=
        std::future_status::ready) {
      ++unresolved;
    }
  }
  if (unresolved > 0) {
    report.violations.push_back(
        "broken promise: " + std::to_string(unresolved) +
        " futures unresolved after 30s");
    // Without every future ready no other invariant is meaningful (and
    // .get() below would block); bail with the replay line.
    report.injected_fires = FaultRegistry::Global().total_fires();
    FaultRegistry::Global().Disarm();
    executor.Shutdown();
    return report;
  }

  report.injected_fires = FaultRegistry::Global().total_fires();
  FaultRegistry::Global().Disarm();

  // --- Invariant: singleflight drains ---------------------------------
  if (executor.inflight().size() != 0) {
    report.violations.push_back(
        "inflight leak: " + std::to_string(executor.inflight().size()) +
        " entries remain after all futures resolved");
  }

  // --- Invariants: failure vocabulary + bit-identical replay ----------
  // Replay runs fault-free (disarmed, unbounded, serial, no memo) against
  // the exact document handle submitted. An ok answer computed against —
  // or cached under — any other epoch fails this check.
  for (TrackedSubmit& t : tracked) {
    Result<QueryResult> outcome = t.submission.future.get();
    if (!outcome.ok()) {
      ++report.failed;
      if (!AllowedFailure(outcome.status().code())) {
        report.violations.push_back(
            "unexpected failure code: " + outcome.status().ToString());
      }
      continue;
    }
    ++report.ok;
    if (outcome->degraded) continue;
    Result<QueryResult> replay =
        t.plan->Execute(*t.document, ExecContext::Unbounded(), {});
    if (!replay.ok()) {
      report.violations.push_back("fault-free replay failed: " +
                                  replay.status().ToString());
      continue;
    }
    ++report.replayed;
    if (!SameAnswer(*outcome, *replay)) {
      report.violations.push_back(
          std::string("answer mismatch vs fault-free replay: query '") +
          t.plan->text() + "' on " + t.document->name() + " (shape " +
          AnswerShape(*outcome) + " vs " + AnswerShape(*replay) + ")");
    }
  }

  // --- Invariant: registry totals exact -------------------------------
  // Every submit call either reached admission (counted), was served by a
  // result-cache hit on the submitting thread, or collapsed into an
  // in-flight leader. The tallies are plain atomics, but the submitted
  // counter itself is observability, so the equation needs obs compiled
  // in. Every run, inline or on a worker, flushes its shadow counters
  // before fulfilling its future, so with every future ready the registry
  // is exact — no sleep needed. The same holds for the run counts.
#ifndef TREEQ_OBS_DISABLED
  report.inline_runs =
      registry.CounterValue("engine.exec.inline_requests") - inline_before;
  report.worker_runs = registry.CounterValue("engine.exec.requests") -
                       requests_before - report.inline_runs;
  const uint64_t submitted_delta =
      registry.CounterValue("engine.exec.submitted") - submitted_before;
  const uint64_t hits_delta = result_cache.hits() - result_hits_before;
  const uint64_t followers_delta =
      executor.inflight().followers() - followers_before;
  if (submitted_delta + hits_delta + followers_delta != report.submits) {
    report.violations.push_back(
        "stats not exact: submitted " + std::to_string(submitted_delta) +
        " + result hits " + std::to_string(hits_delta) + " + followers " +
        std::to_string(followers_delta) + " != submit calls " +
        std::to_string(report.submits));
  }
#endif

  // --- Invariant: clean shutdown (idempotent under the race case) -----
  executor.Shutdown();
  return report;
}

std::string StormReport::ToString() const {
  std::string out = "storm seed=" + std::to_string(seed) + ": submits=" +
                    std::to_string(submits) + " ok=" + std::to_string(ok) +
                    " failed=" + std::to_string(failed) + " fires=" +
                    std::to_string(injected_fires) + " replayed=" +
                    std::to_string(replayed) + " inline=" +
                    std::to_string(inline_runs) + " worker=" +
                    std::to_string(worker_runs);
  if (violations.empty()) {
    out += " PASS";
    return out;
  }
  out += " FAIL";
  for (const std::string& v : violations) out += "\n  violation: " + v;
  out += "\n  replay: " + replay_line;
  return out;
}

int StressIters(int default_iters) {
  const char* env = std::getenv("TREEQ_STRESS_ITERS");
  if (env == nullptr || *env == '\0') return default_iters;
  const long parsed = std::strtol(env, nullptr, 10);
  return parsed >= 1 ? static_cast<int>(parsed) : default_iters;
}

}  // namespace fault
}  // namespace treeq
