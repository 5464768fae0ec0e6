#include "engine/executor.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_set>
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

#ifndef TREEQ_OBS_DISABLED
/// A profile carrying the request identity every recording path (result
/// cache hit, rejection, worker) shares; each site fills in the rest.
obs::QueryProfile IdentityProfile(uint64_t id, const Plan& plan,
                                  const Document& doc, bool plan_cache_hit) {
  obs::QueryProfile profile;
  profile.id = id;
  profile.language = LanguageName(plan.language());
  profile.query_hash = obs::HashQueryText(plan.text());
  profile.query = plan.text().substr(0, obs::kMaxQueryChars);
  profile.document = doc.name();
  profile.explain = plan.Explain();
  profile.canonical_hash = plan.canonical_hash().ToHex();
  profile.cache_hit = plan_cache_hit;
  return profile;
}
#endif

Result<QueryResult> RunOne(const PlanPtr& plan, const DocumentPtr& doc,
                           const ExecContextPtr& context,
                           bool allow_degraded, cache::EvalCache* eval_cache) {
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
  options.allow_degraded = allow_degraded;
  // Bind the cross-query memo to this document's epoch for the duration of
  // the evaluation; the memo object itself is stateless and cheap.
  std::optional<cache::EvalCache::Memo> memo;
  if (eval_cache != nullptr) {
    memo.emplace(eval_cache, doc->epoch());
    options.axis_memo = &*memo;
  }
  const ExecContext& exec =
      context != nullptr ? *context : ExecContext::Unbounded();
  return plan->Execute(*doc, exec, options);
}

/// A request qualifies for result-cache service and singleflight collapse
/// only when nothing about it is per-request: no deadline, no budgets, no
/// bypass. Bounded requests must pay (and be limited by) their own
/// execution.
bool CacheEligible(const SubmitOptions& options) {
  return !options.bypass_cache &&
         options.timeout == std::chrono::nanoseconds::zero() &&
         options.visit_budget == UINT64_MAX &&
         options.memory_budget == UINT64_MAX;
}

cache::ResultKey MakeResultKey(const Plan& plan, uint64_t doc_epoch) {
  // The canonical hash folds in language, dialect options, and structure:
  // semantically identical queries across dialects share one key, one
  // cached result, and one singleflight.
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
  return SubmitWithCollapse(std::move(request), singleflight_);
}

Submission Executor::SubmitWithCollapse(QueryRequest request, bool collapse) {
  const SubmitOptions& options = request.options;
  Task task;
  task.plan = std::move(request.plan);
  task.document = std::move(request.document);
  task.allow_degraded = options.allow_degraded;
  task.bypass_cache = options.bypass_cache;
  task.cache_hit = options.plan_cache_hit;
  ExecContext::Limits limits;
  if (options.timeout > std::chrono::nanoseconds::zero()) {
    limits.deadline = ExecContext::Clock::now() + options.timeout;
  }
  limits.visit_budget = options.visit_budget;
  limits.memory_budget = options.memory_budget;
  task.context = std::make_shared<ExecContext>(limits);

  const bool reusable = task.plan != nullptr && task.document != nullptr &&
                        (result_cache_ != nullptr || collapse) &&
                        CacheEligible(options);
  if (reusable) {
    cache::ResultKey key =
        MakeResultKey(*task.plan, task.document->epoch());
    if (result_cache_ != nullptr) {
      if (std::optional<QueryResult> hit = result_cache_->Lookup(key)) {
        // Served on the submitting thread: no queue, no worker. Charge the
        // lookup (one unit) — the saved execution was not paid for.
        (void)task.context->Charge(1);
#ifndef TREEQ_OBS_DISABLED
        if (obs::FlightRecorder::Global().enabled()) {
          obs::QueryProfile profile =
              IdentityProfile(obs::NextQueryId(), *task.plan, *task.document,
                              task.cache_hit);
          profile.engine = "cache.result";
          profile.result_cache_hit = true;
          profile.visits = 1;
          profile.estimated_visits = hit->route_cost;
          TREEQ_OBS_FLIGHT_RECORD(std::move(profile));
        }
#endif
        Submission submission;
        submission.context = task.context;
        std::promise<Result<QueryResult>> ready;
        submission.future = ready.get_future();
        ready.set_value(*std::move(hit));
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
        Submission submission;
        submission.context = task.context;
        submission.future = *std::move(follower);
        return submission;
      }
      task.flight_leader = true;
    }
    task.result_key = std::move(key);
  }
  return SubmitTask(std::move(task), options.reject_when_full);
}

Submission Executor::SubmitTask(Task task, bool reject_when_full) {
  Submission submission;
  submission.context = task.context;
  submission.future = task.promise.get_future();
#ifndef TREEQ_OBS_DISABLED
  // Stamp the queue-wait start and the process-unique query id here, on
  // the submitting thread, so the worker can attribute the wait and the
  // flight recorder has a stable id even for rejected requests' siblings.
  task.enqueue_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  task.profile_id = obs::NextQueryId();
#endif
  TREEQ_OBS_INC("engine.exec.submitted");
  // If this task is a singleflight leader, its key must survive the move
  // below: a rejected leader still owes the in-flight table a Complete, or
  // collapsed followers would wait forever.
  std::optional<cache::ResultKey> flight_key;
  if (task.flight_leader) flight_key = task.result_key;
#ifndef TREEQ_OBS_DISABLED
  // Snapshot what a rejection profile needs before the task is consumed
  // by the queue move below (shared_ptr copies; recorder-gated).
  PlanPtr profile_plan;
  DocumentPtr profile_doc;
  if (obs::FlightRecorder::Global().enabled()) {
    profile_plan = task.plan;
    profile_doc = task.document;
  }
  const uint64_t profile_id = task.profile_id;
  const bool profile_cache_hit = task.cache_hit;
#endif
  bool accepted;
  if (shutdown_.load(std::memory_order_acquire)) {
    accepted = false;
  } else if (TREEQ_FAULT_FIRED("engine.queue.push")) {
    // Injected submit-side saturation: indistinguishable from a genuinely
    // full queue — same rejection counter, same Unavailable contract.
    accepted = false;
  } else if (reject_when_full) {
    accepted = queue_.TryPush(std::move(task));
  } else {
    accepted = queue_.Push(std::move(task));
  }
  if (!accepted) {
    // The task's promise went into a failed push or is dropped with
    // `task`; either way, rebuild a pre-failed future. Shutdown wins over "queue full" for the message —
    // a TryPush can lose to either.
    const bool down = shutdown_.load(std::memory_order_acquire);
    if (!down) TREEQ_OBS_INC("engine.rejected");
    Status status = Status::Unavailable(
        down ? "executor is shut down" : "executor queue is full");
    if (flight_key.has_value()) {
      inflight_.Complete(*flight_key, status);
    }
#ifndef TREEQ_OBS_DISABLED
    // Rejected requests get a profile too (engine "rejected", zero
    // execute time): a saturated queue is exactly when the flight
    // recorder is most useful.
    if (profile_plan != nullptr && profile_doc != nullptr &&
        obs::FlightRecorder::Global().enabled()) {
      obs::QueryProfile profile = IdentityProfile(
          profile_id, *profile_plan, *profile_doc, profile_cache_hit);
      profile.engine = "rejected";
      profile.ok = false;
      profile.status = StatusCodeName(status.code());
      TREEQ_OBS_FLIGHT_RECORD(std::move(profile));
    }
#endif
    std::promise<Result<QueryResult>> failed;
    submission.future = failed.get_future();
    failed.set_value(std::move(status));
  }
  return submission;
}

std::vector<Submission> Executor::SubmitBatch(
    std::span<QueryRequest> requests) {
  // Warm each distinct document once on the submitting thread, so N
  // requests against the same document race on nothing: the label index is
  // built (or found already built) exactly here. With an eval cache
  // attached, the first executed request then populates axis images the
  // rest of the group reuses.
  std::unordered_set<const Document*> warmed;
  for (const QueryRequest& request : requests) {
    if (request.document == nullptr) continue;
    if (warmed.insert(request.document.get()).second) {
      (void)request.document->label_index();
    }
  }
  // Collapse identical eligible requests within the batch regardless of
  // the executor-wide singleflight flag: the first of each key leads, the
  // rest follow its outcome.
  std::vector<Submission> submissions;
  submissions.reserve(requests.size());
  for (QueryRequest& request : requests) {
    submissions.push_back(
        SubmitWithCollapse(std::move(request), /*collapse=*/true));
  }
  return submissions;
}

std::vector<Result<QueryResult>> Executor::RunBatch(
    std::vector<Request> requests) {
  std::vector<std::future<Result<QueryResult>>> futures;
  futures.reserve(requests.size());
  for (Request& r : requests) {
    QueryRequest request;
    request.plan = std::move(r.plan);
    request.document = std::move(r.document);
    futures.push_back(Submit(std::move(request)).future);
  }
  std::vector<Result<QueryResult>> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

void Executor::WorkerLoop() {
  // Fault rules with thread_tag="worker" fire only on pool threads.
  TREEQ_FAULT_THREAD_TAG("worker");
  // All counter increments below (and inside the evaluators) buffer into
  // this worker's shadow and merge at request boundaries; see executor.h.
  obs::ShadowCounters shadow;
#ifndef TREEQ_OBS_DISABLED
  // The two evaluator counters a profile attributes per request. GetCounter
  // registers on first use and returns a stable pointer, so hoisting the
  // lookups out of the loop leaves the per-request snapshot as two probes
  // of the shadow's thread-private map.
  obs::Counter* const words_scanned =
      obs::StatsRegistry::Global().GetCounter("axes.words_scanned");
  obs::Counter* const label_hits =
      obs::StatsRegistry::Global().GetCounter("labelindex.hits");
  obs::Counter* const eval_hits =
      obs::StatsRegistry::Global().GetCounter("cache.eval.hits");
#endif
  while (std::optional<Task> task = queue_.Pop()) {
    auto start = std::chrono::steady_clock::now();
#ifndef TREEQ_OBS_DISABLED
    // The shadow was flushed at the previous request boundary, but snapshot
    // the buffered deltas anyway so the attribution stays correct even if
    // a future change leaves residue in the buffer.
    const bool profiling = obs::FlightRecorder::Global().enabled() &&
                           task->plan != nullptr &&
                           task->document != nullptr;
    const uint64_t words_before =
        profiling ? shadow.BufferedDelta(words_scanned) : 0;
    const uint64_t labels_before =
        profiling ? shadow.BufferedDelta(label_hits) : 0;
    const uint64_t eval_hits_before =
        profiling ? shadow.BufferedDelta(eval_hits) : 0;
    uint64_t queue_wait_ns = 0;
    if (task->enqueue_ns != 0) {
      const uint64_t dequeue_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              start.time_since_epoch())
              .count());
      queue_wait_ns =
          dequeue_ns > task->enqueue_ns ? dequeue_ns - task->enqueue_ns : 0;
      TREEQ_OBS_HISTOGRAM("engine.queue_wait_ns", queue_wait_ns);
    }
#endif
    // Injected worker hand-off failure: the popped task never evaluates
    // and fails with the injected status, but every obligation below —
    // profile, shadow flush, flight completion, promise — still runs.
    Result<QueryResult> result = [&]() -> Result<QueryResult> {
      if (Status injected = TREEQ_FAULT_INJECT("engine.queue.pop");
          !injected.ok()) {
        return injected;
      }
      return RunOne(task->plan, task->document, task->context,
                    task->allow_degraded,
                    task->bypass_cache ? nullptr : eval_cache_);
    }();
    // Publish a reusable outcome before anyone can observe the future: ok
    // and non-degraded only, so a cache hit is bit-identical to the
    // uncached evaluation it replays.
    if (task->result_key.has_value() && result_cache_ != nullptr &&
        result.ok() && !result.value().degraded) {
      result_cache_->Insert(*task->result_key, result.value());
    }
    auto elapsed_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    TREEQ_OBS_INC("engine.exec.requests");
    if (!result.ok()) TREEQ_OBS_INC("engine.exec.errors");
    TREEQ_OBS_HISTOGRAM("engine.exec.request_ns", elapsed_ns);
    TREEQ_OBS_HISTOGRAM("engine.execute_ns", elapsed_ns);
    if (task->context != nullptr) {
      TREEQ_OBS_COUNT("exec.visits", task->context->visits_used());
    }
#ifndef TREEQ_OBS_DISABLED
    if (profiling) {
      const Plan& plan = *task->plan;
      obs::QueryProfile profile = IdentityProfile(
          task->profile_id, plan, *task->document, task->cache_hit);
      profile.engine =
          result.ok() ? result.value().engine
                      : treeq::plan::EngineName(plan.NativeEngine());
      profile.degraded = result.ok() && result.value().degraded;
      if (result.ok()) {
        profile.route_rationale = result.value().route_rationale;
        profile.estimated_visits = result.value().route_cost;
      }
      profile.ok = result.ok();
      profile.status = StatusCodeName(result.status().code());
      profile.queue_wait_ns = queue_wait_ns;
      // A cache hit reused a plan some earlier request paid to compile.
      profile.compile_ns = task->cache_hit ? 0 : plan.compile_ns();
      profile.execute_ns = elapsed_ns;
      profile.visits =
          task->context != nullptr ? task->context->visits_used() : 0;
      profile.words_scanned =
          shadow.BufferedDelta(words_scanned) - words_before;
      profile.label_index_hits =
          shadow.BufferedDelta(label_hits) - labels_before;
      profile.eval_cache_hits =
          shadow.BufferedDelta(eval_hits) - eval_hits_before;
      // Record before the flush + set_value below: once the caller sees
      // the future ready, the profile is visible in the recorder.
      TREEQ_OBS_FLIGHT_RECORD(std::move(profile));
    }
#endif
    // Merge this request's counter deltas before the caller can observe
    // the future: "future ready" implies "stats visible". The flight fans
    // out after the flush for the same reason — a follower's future ready
    // implies the leader's stats are visible too.
    shadow.Flush();
    if (task->flight_leader) {
      inflight_.Complete(*task->result_key, result);
    }
    task->promise.set_value(std::move(result));
  }
}

}  // namespace engine
}  // namespace treeq
