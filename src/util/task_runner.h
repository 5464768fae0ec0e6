#ifndef TREEQ_UTIL_TASK_RUNNER_H_
#define TREEQ_UTIL_TASK_RUNNER_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

/// \file task_runner.h
/// The fork-join seam between the parallel axis kernel (tree/par_axes.h)
/// and whatever executes its partition tasks. The kernel only ever needs
/// one operation — "run these closures, all of them, and return when every
/// one has finished" — so that is the whole interface. The engine plugs in
/// a TaskGroupRunner backed by its worker pool (engine/task_group.h, with
/// help-running so nested tasks cannot deadlock the bounded queue); tests
/// and benches use the two trivial implementations below.
///
/// Contract for RunAll:
///   - every task is invoked exactly once, on an unspecified thread
///     (possibly the calling thread);
///   - RunAll returns only after all tasks have returned (a join barrier:
///     writes made by the tasks happen-before the return);
///   - tasks must not call RunAll recursively (single fork level — the
///     partition kernel never nests) and must not throw.

namespace treeq {
namespace par {

class TaskRunner {
 public:
  virtual ~TaskRunner() = default;

  /// Runs every task and joins. See the file comment for the contract.
  virtual void RunAll(std::vector<std::function<void()>> tasks) = 0;
};

/// Runs the tasks inline on the calling thread, in order. The degenerate
/// degree-1 runner: useful as a stand-in where a TaskRunner is required but
/// parallel execution is not wanted (and in tests, to pin scheduling).
class SerialRunner : public TaskRunner {
 public:
  void RunAll(std::vector<std::function<void()>> tasks) override {
    for (auto& task : tasks) task();
  }
};

/// Spawns one std::thread per task and joins them. No pooling, no queue —
/// the simplest possibly-parallel runner, used by the kernel differential
/// tests and the scaling bench so they exercise true cross-thread execution
/// without standing up an Executor.
class ThreadPerTaskRunner : public TaskRunner {
 public:
  void RunAll(std::vector<std::function<void()>> tasks) override {
    if (tasks.empty()) return;
    if (tasks.size() == 1) {
      tasks[0]();
      return;
    }
    std::vector<std::thread> threads;
    threads.reserve(tasks.size() - 1);
    for (size_t i = 1; i < tasks.size(); ++i) {
      threads.emplace_back(std::move(tasks[i]));
    }
    tasks[0]();  // the caller is a worker too
    for (std::thread& t : threads) t.join();
  }
};

/// How the partition kernel should fork. The degenerate default
/// (parallelism 0, no runner) makes it take its serial path, so a
/// ParOptions can be threaded unconditionally.
struct ParOptions {
  /// Partition degree; values < 2 mean "do not fork".
  int parallelism = 0;
  /// Executes the partition tasks; required when parallelism >= 2.
  TaskRunner* runner = nullptr;
  /// Inputs smaller than this run the serial kernel inline: forking has a
  /// fixed cost (closures, child contexts, merge pass) that only pays off
  /// on large inputs.
  int min_context = 1024;
};

/// Per-call attribution of one parallel stage, summed over stages by the
/// evaluators and surfaced in QueryResult / QueryProfile as
/// `partitions` / `parallel_ns` / `merge_ns`.
struct ParStats {
  /// Partition degree of the widest fork performed (0 = never forked).
  int partitions = 0;
  /// Wall time spent inside RunAll (fork + kernels + join), summed.
  uint64_t parallel_ns = 0;
  /// Wall time spent OR-merging partial results, summed.
  uint64_t merge_ns = 0;

  void Accumulate(const ParStats& other) {
    if (other.partitions > partitions) partitions = other.partitions;
    parallel_ns += other.parallel_ns;
    merge_ns += other.merge_ns;
  }
};

}  // namespace par
}  // namespace treeq

#endif  // TREEQ_UTIL_TASK_RUNNER_H_
