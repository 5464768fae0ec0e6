// perfbench: the serving benchmark of treeq.
//
//   perfbench --workload eval_mix|serve_zipf|churn_update --seed N
//             --seconds S --trace 0|1 [--commit SHA] [--out-dir DIR]
//   perfbench --workload W --seed N --digest   (request digest only)
//   perfbench --verify-pool --seed N           (serve_zipf pool check)
//
// --trace 0 measures the end-to-end metrics: a closed loop of one client
// with no think time against an Executor with 2 workers, after a warm-up,
// for S seconds. Operations, writes and set-up are timed in serving CPU
// time (ServingCpuNs), which a busy host does not inflate; wall-clock figures
// go to the run record. --trace 1 runs the traced single-thread replay
// (trace.cc) and reports the per-layer metrics. Either way the last line
// of stdout is one JSON object {correct, attempted, failed, metrics}; the
// line before it is the run record saying what produced the run.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "perfbench.h"
#include "trace.h"

namespace perfbench {
namespace {

/// Complete set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Interval of the write probe (Workload::ProbeWrite) of the workloads
/// whose request sequence has no writes. The probe runs on the client
/// thread during the timed window, so write cost is sampled over the
/// whole run and under the same load as the reads.
constexpr uint64_t kWriteProbeNs = 50'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
  std::string out_dir;
  bool digest_only = false;
  bool verify_pool = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(flag + " needs a value");
      return argv[++i];
    };
    auto number = [&]() -> uint64_t {
      const std::string v = value();
      char* end = nullptr;
      const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Usage(flag + " needs a number");
      return n;
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = number();
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(number());
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(number());
    } else if (flag == "--commit") {
      a.commit = value();
    } else if (flag == "--out-dir") {
      a.out_dir = value();
    } else if (flag == "--digest") {
      a.digest_only = true;
    } else if (flag == "--verify-pool") {
      a.verify_pool = true;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.seconds < 1 || a.seconds > 120) Usage("--seconds must be 1..120");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  return a;
}

WorkloadKind KindOf(const std::string& name) {
  if (name == "eval_mix") return WorkloadKind::kEvalMix;
  if (name == "serve_zipf") return WorkloadKind::kServeZipf;
  if (name == "churn_update") return WorkloadKind::kChurnUpdate;
  Usage("unknown workload '" + name + "'");
}

/// Latency histogram: values below 1024 ns have a bucket each, larger
/// ones 128 buckets per power of two (under 0.8% wide). Its memory is
/// fixed however many operations a run completes, so peak RSS measures the
/// program rather than the benchmark's own samples.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(uint64_t ns) {
    ++counts_[Bucket(ns)];
    ++total_;
  }
  void Merge(const LatencyHistogram& other) {
    for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    total_ += other.total_;
  }
  uint64_t count() const { return total_; }

  /// The value at rank q * (count - 1), interpolated linearly inside its
  /// bucket; 0 for an empty histogram.
  double Percentile(double q) const {
    if (total_ == 0) return 0;
    const double rank = q * static_cast<double>(total_ - 1);
    uint64_t below = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      if (rank < static_cast<double>(below + counts_[b])) {
        const double within = (rank - static_cast<double>(below) + 0.5) /
                              static_cast<double>(counts_[b]);
        return static_cast<double>(Lower(b)) +
               within * static_cast<double>(Width(b));
      }
      below += counts_[b];
    }
    return static_cast<double>(Lower(kBuckets - 1));
  }

 private:
  static constexpr size_t kExact = 1024;  // 2^10
  static constexpr int kSubBits = 7;
  static constexpr size_t kBuckets = kExact + (64 - 10) * (1 << kSubBits);

  static size_t Bucket(uint64_t v) {
    if (v < kExact) return static_cast<size_t>(v);
    const int e = 63 - std::countl_zero(v);
    const uint64_t sub = (v >> (e - kSubBits)) & ((1 << kSubBits) - 1);
    return kExact + static_cast<size_t>(e - 10) * (1 << kSubBits) +
           static_cast<size_t>(sub);
  }
  static uint64_t Lower(size_t b) {
    if (b < kExact) return b;
    const int e = static_cast<int>((b - kExact) >> kSubBits) + 10;
    const uint64_t sub = (b - kExact) & ((1 << kSubBits) - 1);
    return (uint64_t{1} << e) + (sub << (e - kSubBits));
  }
  static uint64_t Width(size_t b) {
    if (b < kExact) return 1;
    const int e = static_cast<int>((b - kExact) >> kSubBits) + 10;
    return uint64_t{1} << (e - kSubBits);
  }

  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000, nullptr);
  if (max_ext >= 0x80000004) {
    for (unsigned int k = 0; k < 3; ++k) {
      __get_cpuid(0x80000002 + k, &regs[4 * k], &regs[4 * k + 1],
                  &regs[4 * k + 2], &regs[4 * k + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// What produced a run: machine, build, inputs.
std::string RunRecord(const Args& a, uint64_t digest,
                      const std::string& extra) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
#ifdef __clang__
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef TREEQ_OBS_DISABLED
  const int obs_disabled = 1;
#else
  const int obs_disabled = 0;
#endif
#ifdef TREEQ_FAULT_DISABLED
  const int fault_disabled = 1;
#else
  const int fault_disabled = 0;
#endif
  std::ostringstream os;
  os << "{\"workload\": " << JsonString(a.workload) << ", \"seed\": " << a.seed
     << ", \"seconds\": " << a.seconds << ", \"trace\": " << a.trace
     << ", \"request_digest\": \"" << std::hex << digest << std::dec << "\""
     << ", \"nproc\": " << nproc << ", \"hardware_concurrency\": "
     << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << JsonString(CpuModel())
     << ", \"compiler\": " << JsonString(compiler)
     << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
     << ", \"TREEQ_OBS_DISABLED\": " << obs_disabled
     << ", \"TREEQ_FAULT_DISABLED\": " << fault_disabled
     << ", \"commit\": " << JsonString(a.commit) << extra << "}";
  return os.str();
}

/// Length of one measurement window. Each end-to-end figure is the median
/// over the run's windows of that window's figure, so a few seconds in
/// which the machine ran slow move a figure less than they would move one
/// pooled over the run.
constexpr uint64_t kWindowNs = 5'000'000'000ULL;

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// CPU time of one reference pass (ReferencePassNs) on the machine the
/// end-to-end figures are scaled to.
constexpr double kNominalReferenceNs = 1'000'000;
/// Reference passes the host-speed estimate takes the median of, and
/// their interval in the timed window.
constexpr size_t kGaugeSamples = 9;
constexpr uint64_t kGaugeEveryNs = 50'000'000;

/// The host's speed, from the reference passes of the last moments.
/// A shared 4-vCPU virtual machine (Intel Xeon) runs the same work up to
/// 1.5x slower for seconds to minutes at a time, in CPU time as much as in
/// wall time, so no run is long enough to average that out; each CPU time
/// is instead scaled by how fast the reference kernel ran just before it.
/// The kernel uses no treeq code, so a change to treeq moves the scaled
/// figures as much as the raw ones.
class SpeedGauge {
 public:
  void Sample() {
    const double ns = static_cast<double>(ReferencePassNs());
    if (recent_.size() < kGaugeSamples) {
      recent_.push_back(ns);
    } else {
      recent_[next_] = ns;
    }
    next_ = (next_ + 1) % kGaugeSamples;
    all_.push_back(ns);
  }
  void Fill() {
    for (size_t k = 0; k < kGaugeSamples; ++k) Sample();
  }
  /// Factor from CPU time measured now to CPU time on the nominal
  /// machine.
  double Scale() const { return kNominalReferenceNs / Median(recent_); }
  const std::vector<double>& all() const { return all_; }

 private:
  std::vector<double> recent_;
  size_t next_ = 0;
  std::vector<double> all_;
};

struct Tally {
  /// Per window of completion: scaled serving CPU time of each read,
  /// completed operations and their summed scaled serving CPU time.
  std::vector<LatencyHistogram> cpu_reads;
  std::vector<uint64_t> completed;
  std::vector<double> cpu_ns;
  LatencyHistogram cpu_writes;
  /// Whole-run raw figures, for the run record.
  LatencyHistogram wall_reads;
  LatencyHistogram raw_cpu_reads;
  LatencyHistogram wall_writes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// The client: runs ops first_op, first_op + 1, ... on the calling thread
/// until `last_op` is reached or, when `end_ns` is set, the clock passes
/// it; there is one request in flight at a time, so the serving CPU time
/// between its start and its checked answer is that request's alone.
/// Operations are filed under `windows` windows of kWindowNs from
/// `start_ns`. Every kGaugeEveryNs the client samples the host speed and,
/// with `probe_writes`, runs the write probe; neither is an operation of
/// the sequence.
Tally RunClient(Workload* w, uint64_t first_op, uint64_t last_op,
                uint64_t start_ns, uint64_t end_ns, size_t windows,
                bool probe_writes, SpeedGauge* gauge) {
  Tally t;
  t.cpu_reads.resize(windows);
  t.completed.resize(windows);
  t.cpu_ns.resize(windows);
  uint64_t next_gauge_ns = start_ns;
  auto scaled = [&](uint64_t ns) {
    return static_cast<double>(ns) * gauge->Scale();
  };
  for (uint64_t i = first_op; i < last_op; ++i) {
    if (end_ns != 0 && NowNs() >= end_ns) break;
    if (NowNs() >= next_gauge_ns) {
      next_gauge_ns = NowNs() + kGaugeEveryNs;
      gauge->Sample();
      if (probe_writes) {
        ++t.attempted;
        const Timing probe = w->ProbeWrite(nullptr, nullptr);
        if (probe.wall_ns == 0) {
          ++t.failed;
        } else {
          t.cpu_writes.Add(static_cast<uint64_t>(scaled(probe.cpu_ns)));
          t.wall_writes.Add(probe.wall_ns);
        }
      }
    }
    const Op op = w->MakeOp(i);
    const OpOutcome o = w->Run(op, nullptr);
    ++t.attempted;
    if (!o.ok) {
      ++t.failed;
      continue;
    }
    const size_t k =
        std::min<size_t>((NowNs() - start_ns) / kWindowNs, windows - 1);
    const double cpu = scaled(o.cpu_ns);
    ++t.completed[k];
    t.cpu_ns[k] += cpu;
    if (op.write) {
      t.cpu_writes.Add(static_cast<uint64_t>(cpu));
      t.wall_writes.Add(o.latency_ns);
    } else {
      t.cpu_reads[k].Add(static_cast<uint64_t>(cpu));
      t.raw_cpu_reads.Add(o.cpu_ns);
      t.wall_reads.Add(o.latency_ns);
    }
  }
  return t;
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t k = 0; k < v.size(); ++k) {
    out += (k == 0 ? "" : ", ") + Number(v[k]);
  }
  return out + "]";
}

int RunEndToEnd(const Args& a) {
  const WorkloadKind kind = KindOf(a.workload);
  // Set-up is timed in process CPU time, like the operations (it runs on
  // this thread while the executor's workers sleep), and scaled by the
  // reference passes just before and after it.
  SpeedGauge gauge;
  std::vector<double> setup_s;
  std::vector<double> raw_setup_s;
  std::unique_ptr<Workload> w;
  for (int r = 0; r < kSetups; ++r) {
    w.reset();
    SpeedGauge around;
    for (size_t k = 0; k < kGaugeSamples / 2; ++k) around.Sample();
    const uint64_t start = ProcessCpuNs();
    w = SetUp(kind, a.seed);
    const double s = static_cast<double>(ProcessCpuNs() - start) / 1e9;
    for (size_t k = kGaugeSamples / 2; k < kGaugeSamples; ++k) {
      around.Sample();
    }
    raw_setup_s.push_back(s);
    setup_s.push_back(s * around.Scale());
  }
  const uint64_t digest = w->InputDigest();

  gauge.Fill();
  const Tally warm = RunClient(w.get(), 0, w->warmup_ops(), NowNs(), 0, 1,
                               false, &gauge);
  const size_t serving_threads = WatchServingThreads();

  const uint64_t run_ns = static_cast<uint64_t>(a.seconds) * 1'000'000'000ULL;
  const size_t windows = std::max<size_t>(1, run_ns / kWindowNs);
  gauge.Fill();
  const uint64_t start = NowNs();
  const Tally timed = RunClient(w.get(), w->warmup_ops(), UINT64_MAX, start,
                                start + run_ns, windows,
                                w->has_write_probe(), &gauge);
  const double run_s = static_cast<double>(NowNs() - start) / 1e9;

  const uint64_t attempted = warm.attempted + timed.attempted;
  const uint64_t failed = warm.failed + timed.failed;
  std::vector<double> ops_per_cpu_s, p50, p99;
  uint64_t completed = 0;
  for (size_t k = 0; k < windows; ++k) {
    completed += timed.completed[k];
    if (timed.cpu_ns[k] <= 0 || timed.cpu_reads[k].count() == 0) continue;
    ops_per_cpu_s.push_back(static_cast<double>(timed.completed[k]) /
                            (timed.cpu_ns[k] / 1e9));
    p50.push_back(timed.cpu_reads[k].Percentile(0.50) / 1e6);
    p99.push_back(timed.cpu_reads[k].Percentile(0.99) / 1e6);
  }
  const uint64_t read_samples = timed.wall_reads.count();
  const uint64_t write_samples = timed.cpu_writes.count();
  const double write_p50 = timed.cpu_writes.Percentile(0.50) / 1e6;
  w.reset();
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::ostringstream extra;
  extra << ", \"serving_threads\": " << serving_threads
        << ", \"read_samples\": " << read_samples
        << ", \"write_samples\": " << write_samples
        << ", \"window_ops_per_cpu_s\": " << JsonList(ops_per_cpu_s)
        << ", \"window_cpu_p50_ms\": " << JsonList(p50)
        << ", \"window_cpu_p99_ms\": " << JsonList(p99)
        << ", \"setup_s\": " << JsonList(setup_s)
        << ", \"raw_setup_s\": " << JsonList(raw_setup_s)
        << ", \"reference_pass_ms\": " << Number(Median(gauge.all()) / 1e6)
        << ", \"reference_passes\": " << gauge.all().size()
        << ", \"raw_cpu_p50_ms\": "
        << Number(timed.raw_cpu_reads.Percentile(0.50) / 1e6)
        << ", \"raw_cpu_p99_ms\": "
        << Number(timed.raw_cpu_reads.Percentile(0.99) / 1e6)
        << ", \"wall_qps\": "
        << Number(static_cast<double>(completed) / run_s)
        << ", \"wall_p50_ms\": "
        << Number(timed.wall_reads.Percentile(0.50) / 1e6)
        << ", \"wall_p99_ms\": "
        << Number(timed.wall_reads.Percentile(0.99) / 1e6)
        << ", \"wall_write_p50_ms\": "
        << Number(timed.wall_writes.Percentile(0.50) / 1e6);
  const std::string record = RunRecord(a, digest, extra.str());
  std::printf("record %s\n", record.c_str());
  if (!a.out_dir.empty()) {
    std::ofstream(a.out_dir + "/" + a.workload + "-seed" +
                  std::to_string(a.seed) + "-trace0.json")
        << record << "\n";
  }

  const bool correct = failed == 0 && !p50.empty() && write_samples > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {"
      "\"ops_per_cpu_s\": {\"value\": %s, \"unit\": \"1/s\"}, "
      "\"cpu_p50_ms\": {\"value\": %s, \"unit\": \"ms\"}, "
      "\"cpu_p99_ms\": {\"value\": %s, \"unit\": \"ms\"}, "
      "\"write_cpu_p50_ms\": {\"value\": %s, \"unit\": \"ms\"}, "
      "\"setup_s\": {\"value\": %s, \"unit\": \"s\"}, "
      "\"peak_rss_mb\": {\"value\": %s, \"unit\": \"MB\"}}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      Number(p50.empty() ? 0 : Median(ops_per_cpu_s)).c_str(),
      Number(p50.empty() ? 0 : Median(p50)).c_str(),
      Number(p99.empty() ? 0 : Median(p99)).c_str(),
      Number(write_p50).c_str(), Number(Median(setup_s)).c_str(),
      Number(rss_mb).c_str());
  return 0;
}

int RunTracedMain(const Args& a) {
  const WorkloadKind kind = KindOf(a.workload);
  const uint64_t digest = SetUp(kind, a.seed)->InputDigest();
  const std::string spans_path =
      a.out_dir.empty() ? ""
                        : a.out_dir + "/" + a.workload + "-seed" +
                              std::to_string(a.seed) + "-spans.json";
  TraceResult t = RunTraced(kind, a.seed, spans_path);
  const std::string record = RunRecord(a, digest, "");
  std::printf("record %s\n", record.c_str());
  if (!a.out_dir.empty()) {
    std::ofstream(a.out_dir + "/" + a.workload + "-seed" +
                  std::to_string(a.seed) + "-trace1.json")
        << record << "\n";
  }
  std::ostringstream os;
  os << "{\"correct\": " << (t.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : t.metrics) {
    os << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
       << Number(value.first) << ", \"unit\": " << JsonString(value.second)
       << "}";
    first = false;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = ParseArgs(argc, argv);
  if (a.verify_pool) {
    const int bad = VerifyZipfPool(a.seed);
    std::printf("pool mismatches: %d\n", bad);
    return bad == 0 ? 0 : 1;
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.digest_only) {
    std::printf("%llx\n", static_cast<unsigned long long>(
                              SetUp(KindOf(a.workload), a.seed)->InputDigest()));
    return 0;
  }
  return a.trace == 1 ? RunTracedMain(a) : RunEndToEnd(a);
}
