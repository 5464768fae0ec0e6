#ifndef TREEQ_FAULT_FAULT_H_
#define TREEQ_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/status.h"

/// \file fault.h
/// Deterministic fault injection for the serving stack.
///
/// Every failure edge the engine promises to survive — queue full, budget
/// trip, deadline race, cache eviction mid-flight, shutdown racing submit —
/// is reachable on demand through a *named fault point*: a compiled-in hook
/// (`TREEQ_FAULT_POINT("engine.queue.push")` and friends) that normally
/// costs one relaxed atomic load and, when the global `FaultRegistry` is
/// armed with a `FaultPlan`, may return an injected `Status` that the
/// surrounding code surfaces through its *existing* error contracts. The
/// point never invents a new failure shape: an injected `engine.queue.push`
/// looks exactly like a saturated queue, an injected `exec.deadline.check`
/// trips the context's real sticky-abort machinery.
///
/// Determinism and replay: a plan is a list of rules, each naming a point
/// plus a firing window (`first_hit`, `max_fires`), a probability, and an
/// optional thread tag. Whether the Nth hit of a point fires is a pure
/// function of `(plan.seed, point, N)` — the per-point hit counter is
/// global, so the *set* of firing hit indices does not depend on thread
/// interleaving. Any storm failure therefore replays from the one-line
/// `(seed, plan)` pair printed by `FaultPlan::ToString()` and re-parsed by
/// `FaultPlan::Parse()`.
///
/// Building with -DTREEQ_FAULT_DISABLED (CMake option of the same name)
/// compiles every macro to nothing: `TREEQ_FAULT_POINT` becomes an empty
/// statement, `TREEQ_FAULT_INJECT` a constant `Status::OK()`, and
/// `TREEQ_FAULT_FIRED` a constant `false`, so instrumented hot paths fold
/// to their pre-fault code. The registry itself still builds, keeping the
/// Arm/Disarm API linkable from tests and benches in every configuration.

namespace treeq {
namespace fault {

/// True when fault points are compiled into this build (no
/// TREEQ_FAULT_DISABLED); tests use it to skip injection cases cleanly.
#if defined(TREEQ_FAULT_DISABLED)
inline constexpr bool kFaultPointsCompiledIn = false;
#else
inline constexpr bool kFaultPointsCompiledIn = true;
#endif

/// One injection rule of a plan. Defaults fire on every hit of `point`
/// from any thread.
struct FaultRule {
  /// Exact fault point name (see KnownPoints()).
  std::string point;
  /// The injected status code. Points that route the injection through
  /// richer machinery (the exec.* points trip the context's real abort
  /// kinds) may override the rendered code; everything else surfaces it
  /// verbatim with message "injected fault at <point>".
  StatusCode code = StatusCode::kUnavailable;
  /// 1-based hit index at which the firing window opens.
  uint64_t first_hit = 1;
  /// Fires at most this many times (UINT64_MAX = unlimited).
  uint64_t max_fires = UINT64_MAX;
  /// Per-hit firing probability inside the window. Draws are deterministic
  /// in (plan.seed, point, hit index) — see the file comment.
  double probability = 1.0;
  /// Only fire on threads carrying this tag (SetThreadTag); empty = any.
  /// Executor workers are tagged "worker".
  std::string thread_tag;
};

/// A seed plus rules: everything needed to replay an injected failure.
struct FaultPlan {
  uint64_t seed = 0;
  std::vector<FaultRule> rules;

  /// One-line replay form, e.g.
  ///   seed=42 rule point=engine.queue.push code=Unavailable first=3
  ///   max=1 p=1 tag=any
  /// Parse(ToString()) reproduces the plan exactly.
  std::string ToString() const;
  static Result<FaultPlan> Parse(std::string_view text);
};

/// The process-global fault-point registry. All methods are thread-safe;
/// the disarmed fast path (`armed()`) is one relaxed atomic load.
class FaultRegistry {
 public:
  static FaultRegistry& Global();

  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  /// Installs `plan` and resets every per-point hit/fire counter, so a
  /// replay of the same (seed, plan) sees identical hit indices.
  void Arm(FaultPlan plan);

  /// Clears the plan. Points keep costing the one disarmed load.
  void Disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Called by the TREEQ_FAULT_* macros when armed: counts the hit and
  /// returns the injected status of the first matching rule, or OK.
  Status Hit(const char* point);

  /// Per-point introspection since the last Arm (0 for unknown points).
  uint64_t hits(std::string_view point) const;
  uint64_t fires(std::string_view point) const;
  /// Total fires across all points since the last Arm.
  uint64_t total_fires() const {
    return total_fires_.load(std::memory_order_relaxed);
  }

  /// Copy of the armed plan (empty when disarmed).
  FaultPlan plan() const;

 private:
  FaultRegistry() = default;

  struct RuleState {
    FaultRule rule;
    uint64_t fires = 0;
  };
  struct PointState {
    uint64_t hits = 0;
    uint64_t fires = 0;
    std::vector<RuleState*> rules;  // borrowed from rules_
  };

  mutable std::mutex mu_;
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> total_fires_{0};
  FaultPlan plan_;
  std::vector<std::unique_ptr<RuleState>> rules_;
  /// Transparent hash: an armed Hit() looks its point up by the literal's
  /// string_view, with no std::string built per hit.
  struct PointHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  std::unordered_map<std::string, PointState, PointHash, std::equal_to<>>
      points_;
};

/// Every named fault point compiled into the engine, in naming-scheme
/// order `<module>.<object>.<operation>` (see DESIGN.md "Fault
/// injection"). Adding a TREEQ_FAULT_* site means adding its name here —
/// tests assert each listed point is firable.
const std::vector<std::string>& KnownPoints();

/// Tags the calling thread for FaultRule::thread_tag filters. The pointer
/// must outlive the thread (string literals in practice).
void SetThreadTag(const char* tag);

/// RAII arm/disarm for tests: arms `plan` on construction, disarms on
/// destruction.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan) {
    FaultRegistry::Global().Arm(std::move(plan));
  }
  ~ScopedFaultPlan() { FaultRegistry::Global().Disarm(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace fault
}  // namespace treeq

#if defined(TREEQ_FAULT_DISABLED)

#define TREEQ_FAULT_INJECT(name) (::treeq::Status::OK())
#define TREEQ_FAULT_FIRED(name) (false)
#define TREEQ_FAULT_POINT(name) \
  do {                          \
  } while (0)
#define TREEQ_FAULT_THREAD_TAG(tag) \
  do {                              \
  } while (0)

#else  // !defined(TREEQ_FAULT_DISABLED)

/// Expression yielding the injected Status (OK unless armed and fired).
/// Use at seams that propagate a Status through their own contract.
#define TREEQ_FAULT_INJECT(name)                           \
  (::treeq::fault::FaultRegistry::Global().armed()         \
       ? ::treeq::fault::FaultRegistry::Global().Hit(name) \
       : ::treeq::Status::OK())

/// Expression yielding true when the point fired. Use at bool seams (a
/// queue push, a cache probe) where the surrounding code already has a
/// failure path and the injected code itself is irrelevant.
#define TREEQ_FAULT_FIRED(name) (!TREEQ_FAULT_INJECT(name).ok())

/// Statement: returns the injected Status from the enclosing function
/// when the point fires. For Status- or Result-returning functions.
#define TREEQ_FAULT_POINT(name)                                 \
  do {                                                          \
    ::treeq::Status _treeq_fault = TREEQ_FAULT_INJECT(name);    \
    if (!_treeq_fault.ok()) return _treeq_fault;                \
  } while (0)

/// Tags the calling thread for FaultRule::thread_tag filters.
#define TREEQ_FAULT_THREAD_TAG(tag) ::treeq::fault::SetThreadTag(tag)

#endif  // TREEQ_FAULT_DISABLED

#endif  // TREEQ_FAULT_FAULT_H_
