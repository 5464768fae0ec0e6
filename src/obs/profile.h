#ifndef TREEQ_OBS_PROFILE_H_
#define TREEQ_OBS_PROFILE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

/// \file profile.h
/// Request-scoped observability: one `QueryProfile` per Executor::Submit,
/// answering "which query was slow, on which document, and where did its
/// time go". The process-wide StatsRegistry (stats.h) aggregates totals;
/// a profile attributes them — queue wait vs. compile vs. execute, which
/// evaluator actually ran (including the degraded streaming fallback), and
/// the request's share of the key work counters, captured by snapshotting
/// the worker's ShadowCounters around the evaluation.
///
/// Profiles are plain values. The engine's worker loop fills one per
/// request (engine/executor.cc) and hands it to the FlightRecorder
/// (flight_recorder.h) through the TREEQ_OBS_FLIGHT_RECORD macro, which
/// compiles away under TREEQ_OBS_DISABLED.

namespace treeq {
namespace obs {

/// Everything the serving stack knows about one finished request.
struct QueryProfile {
  /// Process-unique request id, assigned at Submit (NextQueryId()).
  uint64_t id = 0;
  /// FlightRecorder insertion order; 0 until recorded.
  uint64_t seq = 0;

  /// Canonical language name ("xpath", "cq", "datalog", "fo").
  std::string language;
  /// FNV-1a hash of the full query text — stable join key for log
  /// pipelines even when `query` below is truncated.
  uint64_t query_hash = 0;
  /// Query text, truncated to kMaxQueryChars for bounded recorder memory.
  std::string query;
  /// Document name (empty for anonymous documents).
  std::string document;

  /// The evaluator that actually ran ("xpath.set_at_a_time",
  /// "xpath.stream", "cq.x_property", "cq.backtracking", "cq.yannakakis",
  /// "datalog.tmnf", "fo.corollary52", "fo.naive"). For failed requests,
  /// the plan's native engine.
  std::string engine;
  /// Plan::Explain(): the compile-time classification that decided the
  /// routing (dichotomy class, positivity, stream capability, logical IR
  /// + canonical hash + eligible engines).
  std::string explain;
  /// The router's one-line verdict for this execution (QueryResult::
  /// route_rationale; forced routes report "forced:", empty on the
  /// fault-injected fallback and on result-cache hits).
  std::string route_rationale;
  /// The plan's canonical 128-bit identity, as 32 hex chars — the key
  /// PlanCache and ResultCache share across dialects.
  std::string canonical_hash;

  /// True when the plan came from a PlanCache hit (compile_ns is then 0).
  bool cache_hit = false;
  /// True when the whole result came from the ResultCache: the request
  /// never touched the worker queue and `engine` reads "cache.result".
  bool result_cache_hit = false;
  /// True when bounded execution degraded to the streaming fallback.
  bool degraded = false;
  bool ok = true;
  /// StatusCodeName of the final status ("OK", "DEADLINE_EXCEEDED", ...).
  std::string status = "OK";

  /// Wall times: enqueue->dequeue, Plan::Compile, dequeue->done.
  uint64_t queue_wait_ns = 0;
  uint64_t compile_ns = 0;
  uint64_t execute_ns = 0;

  /// Counter deltas attributed to this request (ShadowCounters snapshot
  /// around the evaluation; see DESIGN.md "Per-query observability").
  uint64_t visits = 0;            // ExecContext charge units spent
  uint64_t words_scanned = 0;     // axes.words_scanned delta
  uint64_t label_index_hits = 0;  // labelindex.hits delta
  uint64_t eval_cache_hits = 0;   // cache.eval.hits delta (axis memo)
  /// The router's predicted cost for the engine that ran
  /// (QueryResult::route_cost); a result-cache hit copies the cached
  /// result's. 0 for failed requests.
  uint64_t estimated_visits = 0;

  /// Queue wait + compile + execute: the latency the client observed.
  uint64_t total_ns() const {
    return queue_wait_ns + compile_ns + execute_ns;
  }

  /// One JSON object (no trailing newline).
  void WriteJson(std::ostream& os) const;
};

/// Longest query text stored in a profile; the hash covers the full text.
inline constexpr size_t kMaxQueryChars = 96;

/// FNV-1a over the full query text.
uint64_t HashQueryText(std::string_view text);

/// Process-wide monotonic request id (starts at 1).
uint64_t NextQueryId();

}  // namespace obs
}  // namespace treeq

#endif  // TREEQ_OBS_PROFILE_H_
