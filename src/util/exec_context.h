#ifndef TREEQ_UTIL_EXEC_CONTEXT_H_
#define TREEQ_UTIL_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "util/status.h"

/// \file exec_context.h
/// Cooperative cancellation and resource budgets for query evaluation.
///
/// The paper's central result is that the polynomial/exponential boundary
/// for queries over trees is sharp (Theorems 3.2, 6.8): some inputs are
/// provably expensive, and a serving engine must bound and cancel rather
/// than hope. An `ExecContext` is created per request (engine/executor.h)
/// and threaded through every evaluator; the evaluators call `Charge()` at
/// loop granularity — once per axis operation, stream event, fixpoint rule
/// firing, stack push, enumerated tuple — and abort with
/// `Status::DeadlineExceeded` / `ResourceExhausted` / `Cancelled` as soon
/// as a limit trips.
///
/// Budget semantics:
///   - `visit_budget` is a *deterministic* work budget: the number of
///     charge units (roughly node visits) the evaluation may spend. Unit
///     tests use it to pin budget enforcement without wall clocks.
///   - `deadline` is a wall-clock bound, checked every `kDeadlineStride`
///     charge units so the steady_clock read stays off the per-visit path.
///
/// Thread safety: exactly one thread charges a given context — the worker
/// that evaluates its request, or the submitting thread for a result-cache
/// hit — so `Charge` spends the budget with a relaxed load and store, not
/// an atomic add. Any other thread may only call `Cancel()` and read the
/// accessors. Once a limit trips the context is sticky — every
/// later charge returns the same error — so deep evaluator recursions
/// unwind promptly.
///
/// The shared `ExecContext::Unbounded()` context never trips and its fast
/// path performs no writes, so pre-existing unlimited entry points cost one
/// predictable branch per charge site.

namespace treeq {

class ExecContext {
 public:
  using Clock = std::chrono::steady_clock;

  /// Resource limits for one evaluation. Defaults are all "unlimited".
  struct Limits {
    /// Absolute wall-clock deadline; Clock::time_point::max() = none.
    Clock::time_point deadline = Clock::time_point::max();
    /// Charge units the evaluation may spend; UINT64_MAX = unlimited.
    uint64_t visit_budget = UINT64_MAX;
  };

  /// How many charge units elapse between wall-clock deadline checks.
  static constexpr uint64_t kDeadlineStride = 256;

  /// An unbounded context: never expires, cheap to check. Do not Cancel()
  /// it — it is shared by every caller that passes no context.
  static const ExecContext& Unbounded();

  ExecContext() = default;
  explicit ExecContext(Limits limits);

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Convenience factories.
  static ExecContext WithDeadline(Clock::duration timeout);
  static ExecContext WithVisitBudget(uint64_t visits);

  const Limits& limits() const { return limits_; }
  bool has_limits() const { return limited_; }

  /// Requests cooperative cancellation: the next Charge() on any thread
  /// returns Status::Cancelled. Safe to call from any thread, repeatedly.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Spends `units` of the visit budget and checks cancellation (always)
  /// and the deadline (every kDeadlineStride units). Returns OK or the
  /// sticky abort status. Called at loop granularity by every evaluator.
  Status Charge(uint64_t units = 1) const {
    if (!limited_ && !cancelled_.load(std::memory_order_relaxed)) {
      return Status::OK();
    }
    return ChargeSlow(units);
  }

  /// Re-checks cancellation and the deadline without spending budget (for
  /// stage boundaries where work was already charged).
  Status CheckNow() const;

  /// Charge units spent so far (partial progress at abort time).
  uint64_t visits_used() const {
    return visits_used_.load(std::memory_order_relaxed);
  }

  /// True once a Charge/CheckNow has returned non-OK (or Cancel was
  /// observed). Later charges keep returning the same error.
  bool expired() const {
    return abort_.load(std::memory_order_relaxed) != AbortKind::kNone;
  }

 private:
  enum class AbortKind : int {
    kNone = 0,
    kCancelled,
    kDeadline,
    kVisitBudget,
  };

  Status ChargeSlow(uint64_t units) const;
  /// Records the first abort cause (incrementing its obs counter exactly
  /// once) and renders the matching Status.
  Status Trip(AbortKind kind) const;
  Status AbortStatus(AbortKind kind) const;
  Status CancelledError() const;

  Limits limits_;
  bool limited_ = false;
  std::atomic<bool> cancelled_{false};
  mutable std::atomic<uint64_t> visits_used_{0};
  mutable std::atomic<AbortKind> abort_{AbortKind::kNone};
};

/// Shared handle used by the engine: the submitter keeps one reference (to
/// Cancel) while the worker evaluates with another.
using ExecContextPtr = std::shared_ptr<ExecContext>;

}  // namespace treeq

#endif  // TREEQ_UTIL_EXEC_CONTEXT_H_
