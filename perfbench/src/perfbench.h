// Shared declarations of the serving benchmark: the three workloads, the
// server under test, answer digests, and the span recorder of the traced
// run. The benchmark drives treeq only through its public headers and
// times every layer from outside, around calls into that layer.

#ifndef TREEQ_PERFBENCH_PERFBENCH_H_
#define TREEQ_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/eval_cache.h"
#include "cache/result_cache.h"
#include "engine/engine.h"
#include "tree/tree.h"

namespace perfbench {

using treeq::Language;
using treeq::QueryResult;
using treeq::Tree;
using treeq::DocumentPtr;
using treeq::engine::PlanPtr;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The calling thread's CPU clock, in ns.
uint64_t ThreadCpuNs();
/// Serving CPU time of one operation, in ns: the calling thread's CPU
/// time since `thread_start` (a ThreadCpuNs() reading), plus, when the
/// operation reached an executor worker, the CPU time the threads
/// WatchServingThreads registered have spent since the last operation
/// that reached one. Time a thread waits to be scheduled, and time the
/// hypervisor takes the virtual CPU away (steal), do not count, so this
/// is the work the operation cost rather than how busy the host was.
/// Reading another thread's clock is a system call, so an operation that
/// did not reach a worker (a result-cache hit, a write) skips it; work a
/// worker does after an answer is ready is charged to the next operation
/// that reaches one.
uint64_t ServingCpuNs(uint64_t thread_start, bool reached_worker);
/// Registers every thread of the process except the caller, so
/// ServingCpuNs() counts their CPU time. Call it with the workload's
/// executor running and no thread alive but the caller and the
/// executor's. Returns the number of threads registered.
size_t WatchServingThreads();

/// Runs the reference kernel (reference.cc), a fixed workload that uses
/// no treeq code, twice and returns the CPU time of the second pass, in
/// ns. Its changes over a run are changes in the speed of the host.
uint64_t ReferencePassNs();

/// Wall and serving-CPU (ServingCpuNs) time of one timed call.
struct Timing {
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
};

/// splitmix64 finalizer: the benchmark's counter-based random source, so
/// request i of a sequence is a pure function of (seed, i).
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Element i % n of a permutation of 0..n-1 (n <= 64) that the seed
/// shuffles afresh for every block of n consecutive indices. Every block
/// holds each value once, so the mix of values over any stretch of a run
/// is fixed and only their order depends on the seed.
size_t BlockShuffled(uint64_t seed, uint64_t i, size_t n);

/// FNV-1a over bytes, for the request-sequence and corpus digests.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
};

/// An answer as cardinality plus an order-independent 64-bit hash of the
/// node or tuple set. A node set and the same nodes as 1-tuples digest
/// alike, so spellings of one query in different languages compare equal.
struct Answer {
  uint64_t cardinality = 0;
  uint64_t hash = 0;
  bool operator==(const Answer&) const = default;
};
Answer Digest(const QueryResult& result);

/// One query spelling: language plus text.
struct QueryText {
  Language language = Language::kXPath;
  std::string text;
};

/// The traced run's span recorder. Single-threaded: every span is opened
/// and closed on the client thread (eviction listeners run synchronously
/// inside DocumentStore::Replace on that thread too).
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    uint64_t request;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  void BeginRequest(uint64_t id) { request_ = id; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
  uint64_t request_ = 0;
};

/// The server under test: one store, the plan cache, both caches and a
/// two-worker executor, wired as a real server wires them. Members are
/// declared so the executor (which borrows the caches) is destroyed
/// first.
struct Server {
  struct Config {
    size_t plan_cache_capacity = 64;
    size_t result_cache_entries = 256;
  };
  explicit Server(const Config& config);

  treeq::cache::ResultCache result_cache;
  treeq::cache::EvalCache eval_cache;
  treeq::engine::PlanCache plan_cache;
  treeq::engine::DocumentStore store;
  /// Set by the traced run; the eviction listener then records a span
  /// per cache invalidation.
  Tracer* tracer = nullptr;
  std::unique_ptr<treeq::engine::Executor> executor;
};

/// Maps document epochs to the catalog variant they hold, so a read can
/// be checked against the exact document version it was served from.
/// Find() waits for a writer that has swapped a document in but not yet
/// registered its epoch.
class VersionMap {
 public:
  void Set(uint64_t epoch, int variant);
  int Find(uint64_t epoch);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<uint64_t, int> variants_;
};

/// One operation of a workload's request sequence.
struct Op {
  bool write = false;
  int query = 0;    // eval_mix/churn_update: class; serve_zipf: text id
  int slot = 0;     // document slot
  int variant = 0;  // churn_update writes: replacement catalog
  std::string fresh_text;  // serve_zipf: a text not seen earlier
  int fresh_semantic = -1;
  Language fresh_language = Language::kXPath;
};

/// What one executed operation did, for the checks and the traced run.
struct OpOutcome {
  bool ok = false;
  uint64_t latency_ns = 0;
  /// Serving CPU time (ServingCpuNs) over the same span as latency_ns.
  uint64_t cpu_ns = 0;
  /// The request's query text (reads); points into the workload or `op`.
  Language language = Language::kXPath;
  const std::string* text = nullptr;
  PlanPtr plan;
  DocumentPtr doc;
  int query_class = 0;  // class or template family, for route regret
  bool bounded = false;
  uint64_t visit_budget = UINT64_MAX;
};

enum class WorkloadKind { kEvalMix, kServeZipf, kChurnUpdate };

/// A workload after set-up: the server, its corpus, the reference
/// answers, and the request generator.
class Workload {
 public:
  virtual ~Workload() = default;
  Server& server() { return *server_; }

  /// Request `i` of the sequence, a pure function of (seed, i).
  virtual Op MakeOp(uint64_t i) const = 0;
  /// Runs one operation on the calling thread and checks its answer.
  virtual OpOutcome Run(const Op& op, Tracer* tracer) = 0;
  /// Operations replayed before timing starts, so caches fill.
  virtual uint64_t warmup_ops() const = 0;
  /// Number of query classes (eval_mix classes or serve_zipf families).
  virtual int num_classes() const = 0;
  virtual const char* class_name(int c) const = 0;
  /// The write probe of the workloads whose request sequence has no
  /// writes: replaces the probe document, a catalog of the workload's
  /// largest size registered under a name no request reads, with a fresh
  /// copy of itself. Returns the Replace time (wall_ns 0 if it failed)
  /// and, through `out`, the new document. Only one thread may probe at a
  /// time.
  Timing ProbeWrite(Tracer* tracer, DocumentPtr* out);
  bool has_write_probe() const { return probe_tree_.has_value(); }
  /// Store names of the documents requests read.
  const std::vector<std::string>& names() const { return names_; }

  /// Digest of the corpus, the text pool and the first 2^16 requests.
  uint64_t InputDigest() const;

 protected:
  /// Times DocumentStore::Replace (and its eviction listeners); the
  /// replaced version is freed after the clock stops. wall_ns is 0 if the
  /// Replace failed.
  Timing TimedReplace(const std::string& name, Tree tree, Tracer* tracer,
                        DocumentPtr* out);
  /// Registers the probe document (see ProbeWrite).
  void AddWriteProbe(Tree tree);
  virtual void DigestPool(Fnv* fnv) const = 0;

  std::unique_ptr<Server> server_;
  std::vector<std::string> names_;
  std::optional<Tree> probe_tree_;
  uint64_t seed_ = 0;
  uint64_t corpus_digest_ = 0;
};

/// Builds a workload at its real size: corpus generation, Add, label
/// index warm-up, plan compilation and reference answers.
std::unique_ptr<Workload> SetUp(WorkloadKind kind, uint64_t seed);

/// The eight eval_mix query classes.
struct QueryClass {
  const char* name;
  QueryText query;
  bool bounded;  // carries a visit budget with allow_degraded
  int same_as = -1;  // the class this one is another spelling of
};
const std::vector<QueryClass>& EvalMixClasses();

/// A synthetic product catalog (tree/generator.h) of about `nodes` nodes:
/// the seed picks the content, the node count stays within one product of
/// the target, so the work a document costs varies little with the seed.
Tree Catalog(uint64_t seed, int nodes);

/// Runs `plan` on `doc` pinned to `engine` ("" = routed) under a
/// deadline-only context, which counts visits without a visit budget (a
/// budget would switch routing to the native engine). The result's engine
/// names who answered.
treeq::Result<QueryResult> ExecuteCounted(const PlanPtr& plan,
                                          const treeq::Document& doc,
                                          const std::string& engine,
                                          uint64_t* visits);

/// Checks every (text, document) pair of the serve_zipf pool against its
/// reference answer; returns the number of mismatches.
int VerifyZipfPool(uint64_t seed);

/// The executor-facing engine name of a result (the dichotomy engine
/// reports which of its two paths ran; both are cq.dichotomy).
std::string EngineOf(const QueryResult& result);

}  // namespace perfbench

#endif  // TREEQ_PERFBENCH_PERFBENCH_H_
