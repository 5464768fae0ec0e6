#include "engine/executor.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <utility>

#include "fault/fault.h"
#include "obs/obs.h"
#include "obs/stats.h"
#ifndef TREEQ_OBS_DISABLED
#include "obs/flight_recorder.h"
#include "obs/profile.h"
#endif

namespace treeq {
namespace engine {

namespace {

/// One macro site per language — TREEQ_OBS_INC caches its counter pointer
/// in a function-local static, so it must see a distinct literal per name.
void CountRequestLanguage(Language language) {
  switch (language) {
    case Language::kXPath:
      TREEQ_OBS_INC("engine.exec.xpath_requests");
      break;
    case Language::kCq:
      TREEQ_OBS_INC("engine.exec.cq_requests");
      break;
    case Language::kDatalog:
      TREEQ_OBS_INC("engine.exec.datalog_requests");
      break;
    case Language::kFo:
      TREEQ_OBS_INC("engine.exec.fo_requests");
      break;
  }
}

Result<QueryResult> RunOne(const PlanPtr& plan, const DocumentPtr& doc,
                           const ExecContext& exec,
                           const plan::RouteDecision& route,
                           cache::EvalCache* eval_cache) {
  if (plan == nullptr) {
    return Status::InvalidArgument("null plan submitted");
  }
  if (doc == nullptr) {
    return Status::InvalidArgument("null document submitted");
  }
  // Injected evaluation failure: surfaces through the same path as any
  // evaluator error — cache insert skipped, profile recorded, flight
  // completed, promise fulfilled.
  TREEQ_FAULT_POINT("engine.worker.run");
  CountRequestLanguage(plan->language());
  ExecuteOptions options;
  options.route = &route;
  // Bind the cross-query memo to this document's epoch for the duration of
  // the evaluation; the memo object itself is stateless and cheap.
  std::optional<cache::EvalCache::Memo> memo;
  if (eval_cache != nullptr) {
    memo.emplace(eval_cache, doc->epoch());
    options.axis_memo = &*memo;
  }
  return plan->Execute(*doc, exec, options);
}

/// A request qualifies for result-cache service and singleflight collapse
/// only when nothing about it is per-request: no deadline, no budget, no
/// bypass. Bounded requests must pay (and be limited by) their own
/// execution.
bool CacheEligible(const SubmitOptions& options) {
  return !options.bypass_cache &&
         options.timeout == std::chrono::nanoseconds::zero() &&
         options.visit_budget == UINT64_MAX;
}

cache::ResultKey MakeResultKey(const Plan& plan, uint64_t doc_epoch) {
  // The key is the canonical hash: semantically identical queries, in any
  // language or spelling, share one key, one cached result, and one
  // singleflight.
  cache::ResultKey key;
  key.doc_epoch = doc_epoch;
  key.query_hash_hi = plan.canonical_hash().hi;
  key.query_hash_lo = plan.canonical_hash().lo;
  return key;
}

}  // namespace

Executor::Executor() : Executor(Options()) {}

Executor::Executor(const Options& options)
    : queue_(std::max<size_t>(1, options.queue_capacity)),
      eval_cache_(options.eval_cache),
      result_cache_(options.result_cache),
      singleflight_(options.singleflight) {
  int n = options.num_workers;
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 1;
  }
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() { Shutdown(); }

void Executor::Shutdown() {
  // A fault point in a void seam: firing is observable (counters, storm
  // assertions) but has nothing to fail — shutdown must always complete.
  // Also proves post-shutdown injection can never abort the process.
  (void)TREEQ_FAULT_INJECT("engine.shutdown");
  // Mark first so racing Submits fail fast without touching the queue,
  // then close so blocked pushes bounce and workers drain + exit.
  shutdown_.store(true, std::memory_order_release);
  queue_.Close();
  std::lock_guard<std::mutex> lock(join_mu_);
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Workers drained the queue before exiting; any task still queued at
  // Close() has had its promise fulfilled.
}

Submission Executor::Submit(QueryRequest request) {
  const SubmitOptions& options = request.options;
  Task task;
  task.plan = std::move(request.plan);
  task.document = std::move(request.document);
  task.bypass_cache = options.bypass_cache;
  task.cache_hit = options.plan_cache_hit;
  ExecContext::Limits limits;
  if (options.timeout > std::chrono::nanoseconds::zero()) {
    limits.deadline = ExecContext::Clock::now() + options.timeout;
  }
  limits.visit_budget = options.visit_budget;
  task.context = std::make_shared<ExecContext>(limits);
#ifndef TREEQ_OBS_DISABLED
  task.profile_id = obs::NextQueryId();
#endif
  Submission submission;
  submission.context = task.context;

  // Shutdown is checked before any cache: an executor that is shut down
  // answers nothing, not even a key it has cached.
  const bool down = shutdown_.load(std::memory_order_acquire);
  bool collapse = singleflight_;
  const bool reusable = !down && task.plan != nullptr &&
                        task.document != nullptr &&
                        (result_cache_ != nullptr || collapse) &&
                        CacheEligible(options);
  if (reusable) {
    cache::ResultKey key =
        MakeResultKey(*task.plan, task.document->epoch());
    if (result_cache_ != nullptr) {
      if (std::optional<QueryResult> hit = result_cache_->Lookup(key)) {
        // Served on the submitting thread: no routing, no evaluation.
        submission.future = task.promise.get_future();
        Finish(task, *std::move(hit), {.kind = Ending::kResultCacheHit});
        return submission;
      }
    }
    // Injected singleflight bypass: the request neither joins nor leads —
    // it executes standalone (correct, just uncollapsed), and never owes
    // the in-flight table a Complete.
    if (collapse && TREEQ_FAULT_FIRED("cache.flight.join")) collapse = false;
    if (collapse) {
      if (std::optional<std::future<Result<QueryResult>>> follower =
              inflight_.Join(key)) {
        // Collapsed into the in-flight leader's execution; this request's
        // context is returned but unused (Cancel() on a follower does not
        // cancel the shared leader).
        submission.future = *std::move(follower);
        return submission;
      }
      task.flight_leader = true;
    }
    task.result_key = std::move(key);
  }

  submission.future = task.promise.get_future();
  TREEQ_OBS_INC("engine.exec.submitted");
  // Route once, here; the run executes this decision. A null plan or
  // document has nothing to route and fails at once in RunOne.
  bool run_inline = true;
  if (!down && task.plan != nullptr && task.document != nullptr) {
    task.route = task.plan->Route(*task.document, *task.context,
                                  options.allow_degraded);
    run_inline = task.route.run_inline;
  }
#ifndef TREEQ_OBS_DISABLED
  // Stamp the queue-wait start here, on the submitting thread, so the
  // worker can attribute the wait.
  if (!run_inline) {
    task.enqueue_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
#endif
  // Admission, the same for both paths. A refused push leaves `task`
  // here, so the rejection finishes it like any other request: a rejected
  // leader still completes its flight, or collapsed followers would wait
  // forever. An injected push fault is indistinguishable from a genuinely
  // full queue.
  const bool accepted =
      !down && !TREEQ_FAULT_FIRED("engine.queue.push") &&
      (run_inline || (options.reject_when_full
                          ? queue_.TryPush(std::move(task))
                          : queue_.Push(std::move(task))));
  if (!accepted) {
    // Shutdown wins over "queue full" for the message — a TryPush can lose
    // to either.
    const bool closed = shutdown_.load(std::memory_order_acquire);
    if (!closed) TREEQ_OBS_INC("engine.rejected");
    Finish(task,
           Status::Unavailable(closed ? "executor is shut down"
                                      : "executor queue is full"),
           {.kind = Ending::kRejected});
  } else if (run_inline) {
    // Too cheap to hand off: run it here, as a worker would, and return a
    // ready future. The stack shadow keeps the per-request counter
    // attribution a worker's shadow gives.
    obs::ShadowCounters shadow;
    TREEQ_OBS_INC("engine.exec.inline_requests");
    Run(task, &shadow, 0);
  }
  return submission;
}

void Executor::Finish(Task& task, Result<QueryResult> result,
                      const Ending& ending) {
  // 1. Publish a reusable outcome before anyone can observe the future: ok
  // and non-degraded only, so a cache hit is bit-identical to the uncached
  // evaluation it replays.
  if (task.result_key.has_value() && result_cache_ != nullptr &&
      result.ok() && !result.value().degraded) {
    result_cache_->Insert(*task.result_key, result.value());
  }
#ifndef TREEQ_OBS_DISABLED
  // 2. Record the profile before the future is fulfilled: once the caller
  // sees it ready, the profile is visible in the recorder. Rejected
  // requests get one too (a saturated queue is exactly when the recorder
  // is most useful).
  if (obs::FlightRecorder::Global().enabled() && task.plan != nullptr &&
      task.document != nullptr) {
    const Plan& plan = *task.plan;
    obs::QueryProfile profile;
    profile.id = task.profile_id;
    profile.language = LanguageName(plan.language());
    profile.query_hash = obs::HashQueryText(plan.text());
    profile.query = plan.text().substr(0, obs::kMaxQueryChars);
    profile.document = task.document->name();
    profile.explain = plan.Explain();
    profile.canonical_hash = plan.canonical_hash().ToHex();
    profile.cache_hit = task.cache_hit;
    profile.ok = result.ok();
    profile.status = StatusCodeName(result.status().code());
    profile.degraded = result.ok() && result.value().degraded;
    if (result.ok()) profile.estimated_visits = result.value().route_cost;
    profile.visits = task.context->visits_used();
    switch (ending.kind) {
      case Ending::kResultCacheHit:
        profile.engine = "cache.result";
        profile.result_cache_hit = true;
        break;
      case Ending::kRejected:
        profile.engine = "rejected";
        break;
      case Ending::kRan: {
        // GetCounter registers on first use and returns a stable pointer.
        static obs::Counter* const words_scanned =
            obs::StatsRegistry::Global().GetCounter("axes.words_scanned");
        static obs::Counter* const label_hits =
            obs::StatsRegistry::Global().GetCounter("labelindex.hits");
        static obs::Counter* const eval_hits =
            obs::StatsRegistry::Global().GetCounter("cache.eval.hits");
        profile.engine = result.ok()
                             ? result.value().engine
                             : treeq::plan::EngineName(plan.NativeEngine());
        if (result.ok()) {
          profile.route_rationale = result.value().route_rationale;
        }
        profile.queue_wait_ns = ending.queue_wait_ns;
        // A plan-cache hit reused a plan some earlier request paid to
        // compile.
        profile.compile_ns = task.cache_hit ? 0 : plan.compile_ns();
        profile.execute_ns = ending.execute_ns;
        // The shadow is flushed at every request boundary (step 3), so
        // what it holds now is exactly this request's share.
        profile.words_scanned = ending.shadow->BufferedDelta(words_scanned);
        profile.label_index_hits = ending.shadow->BufferedDelta(label_hits);
        profile.eval_cache_hits = ending.shadow->BufferedDelta(eval_hits);
        break;
      }
    }
    TREEQ_OBS_FLIGHT_RECORD(std::move(profile));
  }
#endif
  // 3. Merge the worker's counter deltas before the caller can observe the
  // future: "future ready" implies "stats visible".
  if (ending.shadow != nullptr) ending.shadow->Flush();
  // 4. The flight fans out after the flush for the same reason: a
  // follower's future ready implies the leader's stats are visible too.
  if (task.flight_leader) inflight_.Complete(*task.result_key, result);
  // 5.
  task.promise.set_value(std::move(result));
}

void Executor::Run(Task& task, obs::ShadowCounters* shadow,
                   uint64_t queue_wait_ns) {
  TREEQ_OBS_HISTOGRAM("engine.queue_wait_ns", queue_wait_ns);
  const auto start = std::chrono::steady_clock::now();
  // Injected hand-off failure: the task never evaluates and fails with the
  // injected status, but Finish still runs every obligation — profile,
  // shadow flush, flight completion, promise.
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    if (Status injected = TREEQ_FAULT_INJECT("engine.queue.pop");
        !injected.ok()) {
      return injected;
    }
    return RunOne(task.plan, task.document, *task.context, task.route,
                  task.bypass_cache ? nullptr : eval_cache_);
  }();
  const auto elapsed_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  TREEQ_OBS_INC("engine.exec.requests");
  if (!result.ok()) TREEQ_OBS_INC("engine.exec.errors");
  TREEQ_OBS_HISTOGRAM("engine.execute_ns", elapsed_ns);
  TREEQ_OBS_COUNT("exec.visits", task.context->visits_used());
  Finish(task, std::move(result),
         {.kind = Ending::kRan,
          .shadow = shadow,
          .queue_wait_ns = queue_wait_ns,
          .execute_ns = elapsed_ns});
}

void Executor::WorkerLoop() {
  // Fault rules with thread_tag="worker" fire only on pool threads.
  TREEQ_FAULT_THREAD_TAG("worker");
  // All counter increments below (and inside the evaluators) buffer into
  // this worker's shadow, which Finish merges at each request boundary;
  // see executor.h.
  obs::ShadowCounters shadow;
  while (std::optional<Task> task = queue_.Pop()) {
    uint64_t queue_wait_ns = 0;
#ifndef TREEQ_OBS_DISABLED
    const uint64_t dequeue_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    if (dequeue_ns > task->enqueue_ns) {
      queue_wait_ns = dequeue_ns - task->enqueue_ns;
    }
#endif
    Run(*task, &shadow, queue_wait_ns);
  }
}

}  // namespace engine
}  // namespace treeq
