#ifndef TREEQ_ENGINE_EXECUTOR_H_
#define TREEQ_ENGINE_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "cache/eval_cache.h"
#include "cache/result_cache.h"
#include "engine/mpmc_queue.h"
#include "engine/plan.h"
#include "tree/document.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file executor.h
/// A fixed-size worker pool that evaluates (plan, document) requests
/// concurrently. Submit(QueryRequest) is the only entry point and returns a
/// future; a caller with many requests submits each and then waits on the
/// futures. Plans and documents are immutable and shared by shared_ptr, so
/// a request needs no locking beyond the queue hand-off.
///
/// Submit routes each request once (Plan::Route) and keeps the decision;
/// the run executes it and never scores again. A request the router scores
/// at most plan::kInlineCost runs on the submitting thread, because handing
/// it to a worker would cost more than evaluating it; Submit then returns
/// an already-ready future. Anything scored higher is pushed onto a bounded
/// MPMC queue (mpmc_queue.h) for a worker, so a long run stays asynchronous
/// and cancellable.
///
/// A request ends in one of four ways: served from the result cache on the
/// submitting thread, rejected (queue full, executor shut down, or the
/// `engine.queue.push` fault point), run inline on the submitting thread,
/// or run by a worker. All four go through one private completion step,
/// Finish(), which in order inserts a reusable result into the result
/// cache, records the request's profile (when the flight recorder is on),
/// flushes the running thread's shadow counters, completes the singleflight
/// the request leads, and fulfils its future. An inline run takes the
/// worker's steps in the worker's order — the `engine.queue.push` and
/// `engine.queue.pop` fault points, the evaluation, the same counters and
/// histograms (a queue wait of 0) — so both paths look the same to the
/// registry, the flight recorder and a fault plan. A collapsed singleflight
/// follower is not a request of its own: its future is fulfilled by the
/// leader's Finish and it records no profile.
///
/// Observability under concurrency: each worker installs an
/// obs::ShadowCounters, and an inline run installs one on the stack, so the
/// thousands of counter increments a single evaluation performs
/// (xpath.axis_ops, datalog.ground_clauses, ...) land in a thread-private
/// buffer instead of contending on shared cache lines. The buffer is merged
/// into the global StatsRegistry at each request boundary, *before* the
/// request's future is fulfilled: once every submitted future is ready,
/// the registry totals are exact.
///
/// Backpressure: Submit blocks while the queue is full — a heavy client
/// slows down rather than ballooning memory — unless the request opts into
/// admission control (SubmitOptions::reject_when_full), in which case a
/// saturated queue rejects immediately with Unavailable (counted as
/// `engine.rejected`). An inline request takes no queue slot, so a full
/// queue neither blocks nor rejects it. Destruction closes the queue,
/// drains remaining requests (their futures complete), and joins.
///
/// Bounded requests: Submit with SubmitOptions attaches an ExecContext
/// (util/exec_context.h) carrying the request's deadline and budget; the
/// returned Submission exposes Cancel(), and the run threads the context
/// through Plan::Execute so evaluation aborts cooperatively. An inline run
/// is over when Submit returns, so Cancel() on it is a no-op.
///
/// Cross-query reuse (Options::eval_cache / result_cache / singleflight;
/// all off by default — a default-constructed Executor behaves exactly as
/// before):
///   - With a result cache, an *unbounded* request (no timeout, no visit
///     budget, bypass_cache unset) whose (doc epoch, canonical query hash)
///     key is resident returns an already-ready future from the
///     Submit call itself — it is neither routed nor run, and its context
///     is charged nothing (visits_used() and the profile's visits read 0).
///     Only ok, non-degraded results are ever inserted.
///   - With singleflight on, concurrent identical unbounded Submits
///     collapse: the first becomes the leader and executes; the rest get
///     futures fulfilled with copies of the leader's outcome — including
///     its error or cancellation, which followers share by design.
///   - With an eval cache, every executed request (bounded or not, unless
///     bypass_cache) evaluates under an axis-image memo bound to its
///     document's epoch, reusing AxisImage results across queries.
/// Bounded requests are never served from (or collapsed into) the result
/// cache, so their deadline/budget/cancel semantics stay exactly
/// per-request.

namespace treeq {
namespace obs {
class ShadowCounters;
}  // namespace obs
namespace engine {

/// Per-request limits and policies for Submit.
struct SubmitOptions {
  /// Wall-clock deadline measured from Submit; zero = none. Queue wait
  /// counts against it: a request popped after its deadline fails without
  /// evaluating.
  std::chrono::nanoseconds timeout = std::chrono::nanoseconds::zero();
  /// Deterministic work budget in charge units; UINT64_MAX = unlimited.
  uint64_t visit_budget = UINT64_MAX;
  /// Reject immediately (Unavailable) instead of blocking when the queue
  /// is full.
  bool reject_when_full = false;
  /// Allow the plan to fall back to the streaming evaluator when the
  /// router finds the native visit bound above the visit budget.
  bool allow_degraded = false;
  /// Set by callers that resolved the plan through a PlanCache hit
  /// (PlanCache::GetOrCompile's `was_hit` out-param). The per-query
  /// profile then reports compile_ns = 0: a hit did not pay compilation.
  bool plan_cache_hit = false;
  /// Opt this request out of every cache layer: no result-cache lookup or
  /// insert, no singleflight collapse, no eval-cache memo. For requests
  /// that must observe a fresh evaluation (and for the bench's cold path).
  bool bypass_cache = false;
};

/// One Submit call as a value: the plan, the document, and the per-request
/// options. Submit(QueryRequest) is the executor's only entry point.
struct QueryRequest {
  PlanPtr plan;
  DocumentPtr document;
  SubmitOptions options;
};

/// Handle for one bounded submission: the result future plus the request's
/// cancel handle. `context` is never null; it is shared with the worker.
struct Submission {
  std::future<Result<QueryResult>> future;
  ExecContextPtr context;

  /// Requests cooperative cancellation; the future then completes with
  /// Status::Cancelled (unless the result was already computed — always
  /// so for a request that ran inline).
  void Cancel() {
    if (context != nullptr) context->Cancel();
  }
};

class Executor {
 public:
  struct Options {
    /// 0 = std::thread::hardware_concurrency (at least 1).
    int num_workers = 0;
    /// Max queued (not yet started) requests before Submit blocks.
    size_t queue_capacity = 256;
    /// Cross-query axis-image memo (cache/eval_cache.h). Borrowed, not
    /// owned; must outlive the executor. Null = no eval caching.
    cache::EvalCache* eval_cache = nullptr;
    /// Whole-query result cache (cache/result_cache.h). Borrowed, not
    /// owned; must outlive the executor. Null = no result caching.
    cache::ResultCache* result_cache = nullptr;
    /// Collapse concurrent identical unbounded Submits into one execution
    /// (see the file comment). Requires nothing besides itself — it works
    /// with or without a result cache — but only takes effect for
    /// cache-eligible (unbounded, non-bypass) requests.
    bool singleflight = false;
  };

  /// Default options: one worker per hardware thread, queue of 256.
  Executor();
  explicit Executor(const Options& options);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The front door: routes one request, then runs it inline or enqueues
  /// it (see the file comment). Attaches an ExecContext built from
  /// `request.options` and returns it alongside the future so the caller
  /// can Cancel(); respects `options.reject_when_full` for admission
  /// control. The future carries the evaluation result, or an
  /// InvalidArgument status for a null plan/document; after Shutdown() it
  /// is an already-failed Unavailable future, even for a key the result
  /// cache holds. The future of an inline run is ready on return.
  Submission Submit(QueryRequest request);

  /// Stops accepting new work, drains queued requests (their futures
  /// complete), and joins the workers. Idempotent and safe to race with
  /// Submit: a Submit that loses the race gets an Unavailable future
  /// instead of a broken promise. A Submit that read the executor as up
  /// before Shutdown() began may still be running its request inline, and
  /// touching the caches, after Shutdown() returns: Shutdown() waits for
  /// the workers, not for other threads' Submit calls.
  void Shutdown();

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// The singleflight in-flight table, read-only. The fault storm harness
  /// and the churn tests assert it drains to empty (no leaked flights)
  /// once every submitted future is ready.
  const cache::InflightTable& inflight() const { return inflight_; }

 private:
  struct Task {
    PlanPtr plan;
    DocumentPtr document;
    ExecContextPtr context;  // never null
    /// The router's decision, made once at Submit; the run executes it.
    plan::RouteDecision route;
    bool bypass_cache = false;
    /// Set for cache-eligible requests that missed the result cache:
    /// Finish inserts the result under this key, and — when
    /// `flight_leader` — completes the in-flight table entry, fanning the
    /// outcome out to collapsed followers.
    std::optional<cache::ResultKey> result_key;
    bool flight_leader = false;
    /// Profile metadata stamped at Submit (obs-enabled builds; zero
    /// otherwise): steady-clock enqueue time for the queue-wait histogram
    /// (queued tasks only), the process-unique query id, and the caller's
    /// plan-cache verdict.
    uint64_t enqueue_ns = 0;
    uint64_t profile_id = 0;
    bool cache_hit = false;
    std::promise<Result<QueryResult>> promise;
  };

  /// How a request ended, and what was measured when it ran.
  struct Ending {
    enum Kind { kResultCacheHit, kRejected, kRan };
    Kind kind;
    /// The running thread's shadow counters and wall times; null and zero
    /// unless `kind` is kRan. An inline run waited for no queue.
    obs::ShadowCounters* shadow = nullptr;
    uint64_t queue_wait_ns = 0;
    uint64_t execute_ns = 0;
  };

  /// The one completion step every request goes through (see the file
  /// comment for the order of its steps).
  void Finish(Task& task, Result<QueryResult> result, const Ending& ending);
  /// Runs an admitted task under `shadow` and finishes it: the
  /// `engine.queue.pop` seam, the evaluation, the run's counters and
  /// histograms, then Finish. A worker calls it for each popped task, and
  /// Submit for an inline one with `queue_wait_ns` = 0.
  void Run(Task& task, obs::ShadowCounters* shadow, uint64_t queue_wait_ns);
  void WorkerLoop();

  BoundedQueue<Task> queue_;
  std::atomic<bool> shutdown_{false};
  std::mutex join_mu_;
  std::vector<std::thread> workers_;
  /// Cache wiring (Options; borrowed pointers, null = feature off).
  cache::EvalCache* const eval_cache_ = nullptr;
  cache::ResultCache* const result_cache_ = nullptr;
  const bool singleflight_ = false;
  cache::InflightTable inflight_;
};

}  // namespace engine

/// The unified request type, re-exported at the top level to pair with
/// treeq::QueryResult (engine/query.h).
using engine::QueryRequest;

}  // namespace treeq

#endif  // TREEQ_ENGINE_EXECUTOR_H_
