#ifndef TREEQ_FAULT_STORM_H_
#define TREEQ_FAULT_STORM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.h"

/// \file storm.h
/// The reusable fault-storm harness behind tests/fault_storm_test.cc and
/// the nightly CI sweep: one RunStorm call drives a randomized mixed
/// workload (unbounded / bounded / cancelled / rejected / burst submits
/// racing document churn) through a fully wired serving stack — Executor +
/// EvalCache + ResultCache + singleflight + DocumentStore — under a fault
/// plan derived from a single seed, then checks the engine's cross-cutting
/// invariants:
///
///   - every future resolves (no broken promises), with a status in the
///     engine's documented failure vocabulary;
///   - every ok non-degraded answer is bit-identical to a fault-free
///     serial replay against the exact document handle submitted (which is
///     also the stale-epoch check: a cache serving a dead epoch fails it);
///   - the singleflight table drains to empty once all futures are ready;
///   - the registry totals are exact once all futures are ready
///     (obs-enabled builds): submitted == submit calls − result-cache hits
///     − collapsed followers.
///
/// The query mix holds requests on both sides of plan::kInlineCost, so a
/// storm drives both the inline path (run on the submitting thread) and
/// the worker path; the report counts the runs of each.
///
/// A failing run is fully described by its one-line replay form
/// (StormReport::replay_line); re-running the same (seed, plan) reproduces
/// the identical firing schedule (see fault.h on determinism).

namespace treeq {
namespace fault {

/// Workload shape for one storm run. Defaults are sized so one run takes
/// well under a second; the nightly sweep runs hundreds of seeds.
struct StormOptions {
  /// Master seed: derives the fault plan (unless one is given), every
  /// per-thread workload RNG, and the document corpus.
  uint64_t seed = 1;
  /// Concurrent client threads issuing submits and churning documents.
  int num_client_threads = 4;
  /// Executor worker threads.
  int num_workers = 3;
  /// Submits/churn ops issued per client thread.
  int ops_per_thread = 60;
  /// Executor queue capacity — deliberately small so genuine queue-full
  /// rejections happen alongside injected ones.
  size_t queue_capacity = 16;
  /// Let client threads Replace/Remove+Add documents mid-storm.
  bool churn_documents = true;
  /// Have one client thread call Shutdown() partway through, so the tail
  /// of the workload races the drain (every such submit must still get a
  /// well-formed Unavailable future).
  bool shutdown_race = false;
  /// Per-hit firing probability used by PlanFromSeed (ignored when an
  /// explicit plan is passed to RunStorm).
  double fault_probability = 0.08;
};

/// Everything one storm run learned, plus its replay line.
struct StormReport {
  uint64_t seed = 0;
  /// `TREEQ_STORM_PLAN` value: FaultPlan::ToString() of the armed plan.
  std::string plan_line;
  /// Copy-pasteable repro, e.g.
  ///   TREEQ_STORM_SEED=7 TREEQ_STORM_PLAN='seed=7 rule point=...'
  std::string replay_line;

  uint64_t submits = 0;        ///< Submit calls that reached the executor.
  uint64_t ok = 0;             ///< Futures that resolved ok.
  uint64_t failed = 0;         ///< Futures that resolved with an error.
  uint64_t injected_fires = 0; ///< FaultRegistry::total_fires().
  uint64_t replayed = 0;       ///< Answers checked bit-identical vs replay.
  /// Requests evaluated on a submitting thread and on a worker
  /// (`engine.exec.inline_requests` and the rest of `engine.exec.requests`;
  /// both 0 in TREEQ_OBS_DISABLED builds).
  uint64_t inline_runs = 0;
  uint64_t worker_runs = 0;

  /// Invariant violations, empty on a clean run. Each entry is a
  /// self-contained sentence; the test prints them with the replay line.
  std::vector<std::string> violations;

  bool passed() const { return violations.empty(); }
  /// Multi-line human summary (counts, violations, replay line).
  std::string ToString() const;
};

/// Derives a deterministic fault plan from `seed`: a random subset of
/// KnownPoints(), each with a randomized firing window and `probability`.
/// Same seed, same plan — the nightly sweep needs nothing but seed numbers.
FaultPlan PlanFromSeed(uint64_t seed, double probability);

/// Runs one storm with the plan derived from `options.seed`.
StormReport RunStorm(const StormOptions& options);

/// Runs one storm under an explicit plan (the replay entry point: parse
/// TREEQ_STORM_PLAN, pass it here with the failing seed in `options`).
StormReport RunStorm(const StormOptions& options, const FaultPlan& plan);

/// Stress scale knob: the value of the TREEQ_STRESS_ITERS environment
/// variable (clamped to >= 1), or `default_iters` when unset/invalid. The
/// storm and churn tests multiply their seed counts by it; CI sets 50 on
/// the TSan smoke slice and 500 on the nightly sweep.
int StressIters(int default_iters);

}  // namespace fault
}  // namespace treeq

#endif  // TREEQ_FAULT_STORM_H_
