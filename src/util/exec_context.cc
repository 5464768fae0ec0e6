#include "util/exec_context.h"

#include <string>

#include "fault/fault.h"
#include "obs/obs.h"

namespace treeq {

const ExecContext& ExecContext::Unbounded() {
  static const ExecContext* const kUnbounded = new ExecContext();
  return *kUnbounded;
}

ExecContext::ExecContext(Limits limits)
    : limits_(limits),
      limited_(limits.deadline != Clock::time_point::max() ||
               limits.visit_budget != UINT64_MAX) {}

ExecContext ExecContext::WithDeadline(Clock::duration timeout) {
  Limits limits;
  limits.deadline = Clock::now() + timeout;
  return ExecContext(limits);
}

ExecContext ExecContext::WithVisitBudget(uint64_t visits) {
  Limits limits;
  limits.visit_budget = visits;
  return ExecContext(limits);
}

Status ExecContext::ChargeSlow(uint64_t units) const {
  AbortKind aborted = abort_.load(std::memory_order_relaxed);
  if (aborted != AbortKind::kNone) return AbortStatus(aborted);
  if (cancelled_.load(std::memory_order_relaxed)) {
    return Trip(AbortKind::kCancelled);
  }
  // Injected limit trips route through the real sticky-abort machinery —
  // identical counters, identical Status rendering — so a storm exercises
  // the genuine failure paths.
  // Guarded on limited_: the shared Unbounded() context must never trip.
  if (limited_) {
    if (TREEQ_FAULT_FIRED("exec.budget.charge")) {
      return Trip(AbortKind::kVisitBudget);
    }
    if (TREEQ_FAULT_FIRED("exec.deadline.check")) {
      return Trip(AbortKind::kDeadline);
    }
  }
  // Load and store, not fetch_add: only the charging thread writes (see
  // exec_context.h).
  uint64_t before = visits_used_.load(std::memory_order_relaxed);
  uint64_t after = before + units;
  visits_used_.store(after, std::memory_order_relaxed);
  if (after > limits_.visit_budget || after < before /*overflow*/) {
    visits_used_.store(limits_.visit_budget, std::memory_order_relaxed);
    return Trip(AbortKind::kVisitBudget);
  }
  // Read the clock on the first charge and once per stride thereafter, so
  // the common path costs two relaxed atomic ops and no syscall.
  if (limits_.deadline != Clock::time_point::max() &&
      (before == 0 || before / kDeadlineStride != after / kDeadlineStride)) {
    if (Clock::now() >= limits_.deadline) return Trip(AbortKind::kDeadline);
  }
  return Status::OK();
}

Status ExecContext::CheckNow() const {
  AbortKind aborted = abort_.load(std::memory_order_relaxed);
  if (aborted != AbortKind::kNone) return AbortStatus(aborted);
  if (cancelled_.load(std::memory_order_relaxed)) {
    return Trip(AbortKind::kCancelled);
  }
  if (limited_ && limits_.deadline != Clock::time_point::max() &&
      Clock::now() >= limits_.deadline) {
    return Trip(AbortKind::kDeadline);
  }
  return Status::OK();
}

Status ExecContext::Trip(AbortKind kind) const {
  AbortKind expected = AbortKind::kNone;
  if (abort_.compare_exchange_strong(expected, kind,
                                     std::memory_order_relaxed)) {
    // First trip only: count the abort cause and the partial progress the
    // evaluation made before it stopped.
    switch (kind) {
      case AbortKind::kCancelled:
        TREEQ_OBS_INC("exec.cancelled");
        break;
      case AbortKind::kDeadline:
        TREEQ_OBS_INC("exec.deadline_exceeded");
        break;
      case AbortKind::kVisitBudget:
        TREEQ_OBS_INC("exec.budget_exhausted");
        break;
      case AbortKind::kNone:
        break;
    }
    TREEQ_OBS_HISTOGRAM("exec.visits_at_abort", visits_used());
    return AbortStatus(kind);
  }
  return AbortStatus(expected);  // some other thread tripped first
}

Status ExecContext::AbortStatus(AbortKind kind) const {
  switch (kind) {
    case AbortKind::kCancelled:
      return CancelledError();
    case AbortKind::kDeadline:
      return Status::DeadlineExceeded(
          "evaluation deadline exceeded after " +
          std::to_string(visits_used()) + " visits");
    case AbortKind::kVisitBudget:
      return Status::ResourceExhausted(
          "visit budget of " + std::to_string(limits_.visit_budget) +
          " exhausted");
    case AbortKind::kNone:
      break;
  }
  return Status::OK();
}

Status ExecContext::CancelledError() const {
  return Status::Cancelled("evaluation cancelled by caller");
}

}  // namespace treeq
