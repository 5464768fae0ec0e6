// The traced run's entry point and result.

#ifndef TREEQ_PERFBENCH_TRACE_H_
#define TREEQ_PERFBENCH_TRACE_H_

#include <map>
#include <string>
#include <utility>

#include "perfbench.h"

namespace perfbench {

struct TraceResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Per-layer metric name -> (value, unit).
  std::map<std::string, std::pair<double, const char*>> metrics;
};

/// Runs the traced replay of `kind`'s request prefix and returns every
/// per-layer metric. Writes the spans and per-name self times as JSON to
/// `spans_path` when it is non-empty.
TraceResult RunTraced(WorkloadKind kind, uint64_t seed,
                      const std::string& spans_path);

}  // namespace perfbench

#endif  // TREEQ_PERFBENCH_TRACE_H_
