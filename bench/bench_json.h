#ifndef TREEQ_BENCH_BENCH_JSON_H_
#define TREEQ_BENCH_BENCH_JSON_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/stats.h"

/// \file bench_json.h
/// Shared `--json=<path>` mode for the bench binaries. When the flag is
/// present, a bench runs its headline workload once under a freshly reset
/// obs registry, measures wall time, and writes one machine-readable
/// BENCH_*.json record:
///
///   {"bench": "<name>", "wall_ns": N,
///    "meta": {"hardware_concurrency": C, ...input sizes and per-bench
///             scalars...},
///    "rows": [...optional per-configuration measurements...],
///    "stats": {"counters": {...}, "gauges": {...},
///              "histograms": {...}, "spans": [...]}}
///
/// The stats object is the full registry dump, so every work counter the
/// engines incremented during the workload (xpath.axis_ops,
/// cq.twig.stack_pushes, ...) lands in the record without per-bench code.
///
/// Usage in a bench main:
///
///   const std::string json = treeq::benchjson::ExtractJsonPath(&argc, argv);
///   if (!json.empty())
///     return treeq::benchjson::WriteRecord(json, "bench_foo", JsonWorkload);

namespace treeq {
namespace benchjson {

/// Removes `--json=<path>` from the argument list (google-benchmark rejects
/// unknown flags) and returns the path, or "" when absent. A bare `--json`
/// or an empty `--json=` is a usage error: exits with code 2 rather than
/// silently running the full benchmark suite.
inline std::string ExtractJsonPath(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    constexpr const char kPrefix[] = "--json=";
    if (std::strncmp(argv[i], kPrefix, sizeof(kPrefix) - 1) == 0) {
      path = argv[i] + sizeof(kPrefix) - 1;
      if (path.empty()) {
        std::fprintf(stderr, "error: --json requires a path (--json=<path>)\n");
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--json") == 0) {
      std::fprintf(stderr, "error: --json requires a path (--json=<path>)\n");
      std::exit(2);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

/// Per-bench scalars and per-configuration rows added by the workload.
class Record {
 public:
  void SetNumber(const std::string& key, double value) {
    numbers_.emplace_back(key, value);
  }
  void SetString(const std::string& key, const std::string& value) {
    strings_.emplace_back(key, value);
  }
  /// One measurement row, e.g. {"k": 3, "naive_rule_applications": 9000}.
  void AddRow(std::vector<std::pair<std::string, double>> row) {
    rows_.push_back(std::move(row));
  }

  void WriteTo(std::ostream& os, const std::string& bench_name,
               uint64_t wall_ns) const {
    os << "{\"bench\": \"" << obs::JsonEscape(bench_name)
       << "\", \"wall_ns\": " << wall_ns << ", \"meta\": {";
    bool first = true;
    for (const auto& [k, v] : strings_) {
      if (!first) os << ", ";
      first = false;
      os << "\"" << obs::JsonEscape(k) << "\": \"" << obs::JsonEscape(v)
         << "\"";
    }
    for (const auto& [k, v] : numbers_) {
      if (!first) os << ", ";
      first = false;
      os << "\"" << obs::JsonEscape(k) << "\": ";
      WriteNumber(os, v);
    }
    os << "}, \"rows\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) os << ", ";
      os << "{";
      for (size_t j = 0; j < rows_[i].size(); ++j) {
        if (j > 0) os << ", ";
        os << "\"" << obs::JsonEscape(rows_[i][j].first) << "\": ";
        WriteNumber(os, rows_[i][j].second);
      }
      os << "}";
    }
    os << "], \"stats\": ";
    obs::StatsRegistry::Global().DumpJson(os);
    os << "}\n";
  }

 private:
  /// Integral values print exactly (counts above 1e6 would otherwise lose
  /// digits to the stream's 6-significant-digit default).
  static void WriteNumber(std::ostream& os, double v) {
    if (std::isfinite(v) && v == std::trunc(v) && std::fabs(v) < 9e15) {
      os << static_cast<int64_t>(v);
    } else {
      os << v;
    }
  }

  std::vector<std::pair<std::string, double>> numbers_;
  std::vector<std::pair<std::string, std::string>> strings_;
  std::vector<std::vector<std::pair<std::string, double>>> rows_;
};

/// Runs `workload` under a reset registry, then writes the record to
/// `path`. Every record's meta carries the host's hardware_concurrency, so
/// a reader can interpret timings. Returns a process exit code.
inline int WriteRecord(const std::string& path, const std::string& bench_name,
                       const std::function<void(Record*)>& workload) {
  obs::StatsRegistry::Global().Reset();
  Record record;
  record.SetNumber("hardware_concurrency",
                   std::thread::hardware_concurrency());
  auto start = std::chrono::steady_clock::now();
  workload(&record);
  auto wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  record.WriteTo(os, bench_name, wall_ns);
  os.close();
  if (!os) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace benchjson
}  // namespace treeq

#endif  // TREEQ_BENCH_BENCH_JSON_H_
