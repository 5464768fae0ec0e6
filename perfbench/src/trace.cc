// The traced run: a single client thread replays a prefix of the
// workload's request sequence with a span around every call into a
// layer, plus probe calls beside each request: parse, lower, canonicalize
// and compile of its text; plan- and result-cache lookups; a direct
// Execute beside a Submit; every eligible engine via force_route beside a
// routed run; Execute at n and about 4n nodes. Work counts come from the
// public cache tallies and the StatsRegistry counters.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include "obs/stats.h"
#include "perfbench.h"
#include "plan/canonicalize.h"
#include "plan/cost.h"
#include "plan/lower.h"
#include "query/parse.h"
#include "tree/label_index.h"
#include "tree/orders.h"
#include "trace.h"

namespace perfbench {

namespace {

using treeq::obs::StatsRegistry;

uint64_t PrefixOps(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kEvalMix:
      return 240;
    case WorkloadKind::kServeZipf:
      return 4000;
    case WorkloadKind::kChurnUpdate:
      return 1200;
  }
  return 0;
}

/// Median wall time of `fn` over a few repetitions (at least one, more
/// while the total stays under about 2 ms).
template <typename Fn>
double MedianNs(Fn&& fn) {
  std::vector<uint64_t> samples;
  uint64_t total = 0;
  do {
    const uint64_t start = NowNs();
    fn();
    samples.push_back(NowNs() - start);
    total += samples.back();
  } while (samples.size() < 9 && total < 2'000'000);
  std::sort(samples.begin(), samples.end());
  return static_cast<double>(samples[samples.size() / 2]);
}

struct Mean {
  double sum = 0;
  uint64_t n = 0;
  void Add(double v) {
    sum += v;
    ++n;
  }
  double value() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

struct EngineStats {
  Mean exec_us;
  Mean visits;
  double scaling_exp = 0;
  bool scaled = false;
};

struct Tallies {
  uint64_t pc_hits, pc_misses, pc_canonical;
  uint64_t rc_hits, rc_misses, rc_evictions;
  uint64_t ec_hits, ec_misses;
  uint64_t words, ac_rounds;
  uint64_t wait_count, wait_sum;
  /// Adds the growth from `a` to `b` field by field.
  void Accumulate(const Tallies& a, const Tallies& b) {
    pc_hits += b.pc_hits - a.pc_hits;
    pc_misses += b.pc_misses - a.pc_misses;
    pc_canonical += b.pc_canonical - a.pc_canonical;
    rc_hits += b.rc_hits - a.rc_hits;
    rc_misses += b.rc_misses - a.rc_misses;
    rc_evictions += b.rc_evictions - a.rc_evictions;
    ec_hits += b.ec_hits - a.ec_hits;
    ec_misses += b.ec_misses - a.ec_misses;
    words += b.words - a.words;
    ac_rounds += b.ac_rounds - a.ac_rounds;
    wait_count += b.wait_count - a.wait_count;
    wait_sum += b.wait_sum - a.wait_sum;
  }
  static Tallies Of(Server& s) {
    StatsRegistry& reg = StatsRegistry::Global();
    const auto hist = reg.HistogramValues();
    const auto it = hist.find("engine.queue_wait_ns");
    return Tallies{s.plan_cache.hits(),
                   s.plan_cache.misses(),
                   s.plan_cache.canonical_hits(),
                   s.result_cache.hits(),
                   s.result_cache.misses(),
                   s.result_cache.evictions(),
                   s.eval_cache.hits(),
                   s.eval_cache.misses(),
                   reg.CounterValue("axes.words_scanned"),
                   reg.CounterValue("cq.ac.propagation_rounds"),
                   it == hist.end() ? 0 : it->second.count,
                   it == hist.end() ? 0 : it->second.sum};
  }
};

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Times parse, lowering, canonicalization and the whole compile of one
/// query text, each through its public function.
void ProbeCompile(const QueryText& q, Mean* parse, Mean* lower, Mean* canon,
                  Mean* compile) {
  uint64_t t0 = NowNs();
  treeq::Result<treeq::ParsedQuery> parsed =
      treeq::ParseQuery(q.language, q.text);
  uint64_t t1 = NowNs();
  if (!parsed.ok()) return;
  parse->Add(static_cast<double>(t1 - t0) / 1e3);
  const treeq::ParsedQuery& pq = parsed.value();
  t0 = NowNs();
  treeq::plan::LogicalPlan ir;
  switch (q.language) {
    case Language::kXPath:
      ir = treeq::plan::LowerXPath(*pq.xpath);
      break;
    case Language::kCq:
      ir = treeq::plan::LowerCq(*pq.cq);
      break;
    case Language::kDatalog:
      ir = treeq::plan::LowerDatalog(*pq.datalog);
      break;
    case Language::kFo:
      ir = treeq::plan::LowerFo(*pq.fo);
      break;
  }
  t1 = NowNs();
  lower->Add(static_cast<double>(t1 - t0) / 1e3);
  (void)treeq::plan::Canonicalize(&ir);
  canon->Add(static_cast<double>(NowNs() - t1) / 1e3);
  t0 = NowNs();
  treeq::Result<PlanPtr> plan =
      treeq::engine::Plan::Compile(q.language, q.text);
  if (plan.ok()) compile->Add(static_cast<double>(NowNs() - t0) / 1e3);
}

/// Single-thread replay of ops [from, to) without tracing or probes.
/// Returns the summed operation latency.
uint64_t Replay(Workload* w, uint64_t from, uint64_t to, uint64_t* failed) {
  uint64_t total = 0;
  for (uint64_t i = from; i < to; ++i) {
    OpOutcome o = w->Run(w->MakeOp(i), nullptr);
    if (!o.ok) ++*failed;
    total += o.latency_ns;
  }
  return total;
}

}  // namespace

TraceResult RunTraced(WorkloadKind kind, uint64_t seed,
                      const std::string& spans_path) {
  TraceResult out;
  const uint64_t prefix = PrefixOps(kind);

  // --- Phase A: the traced replay -----------------------------------------
  std::unique_ptr<Workload> w = SetUp(kind, seed);
  const uint64_t warm = w->warmup_ops();
  uint64_t failed = 0;
  (void)Replay(w.get(), 0, warm, &failed);
  Server& server = w->server();
  Tracer tracer;
  server.tracer = &tracer;

  Mean parse, lower, canon, compile, lookup, handoff, rc_lookup, replace,
      orders, label_index, route_overhead;
  std::map<std::string, EngineStats> engines;
  for (int k = 0; k < treeq::plan::kNumEngineKinds; ++k) {
    engines[treeq::plan::EngineName(static_cast<treeq::plan::EngineKind>(k))];
  }
  std::vector<std::vector<double>> log_regret(
      static_cast<size_t>(w->num_classes()));
  std::set<std::pair<const treeq::engine::Plan*, uint64_t>> probed;
  // Keeps every probed plan alive, so no later plan reuses its address.
  std::vector<PlanPtr> probed_plans;
  uint64_t traced_ns = 0;
  uint64_t reads = 0;
  // Tallies summed over the request path only: probe calls count toward
  // no hit ratio or work count.
  Tallies path{};

  auto probe_write = [&](const DocumentPtr& doc) {
    const uint64_t t0 = NowNs();
    treeq::TreeOrders o = treeq::ComputeOrders(doc->tree());
    const uint64_t t1 = NowNs();
    treeq::LabelIndex index(doc->tree(), o);
    orders.Add(static_cast<double>(t1 - t0) / 1e3);
    label_index.Add(static_cast<double>(NowNs() - t1) / 1e3);
  };

  // Routed and forced runs of every eligible engine on (plan, doc), once
  // per pair. Returns false when the pair was probed before.
  struct Routing {
    double regret = 0;       // routed time / fastest eligible engine's
    double overhead_ns = 0;  // routed time - forced time of the chosen one
  };
  auto probe_routing = [&](const PlanPtr& plan, const treeq::Document& doc,
                           Routing* r) {
    if (!probed.insert({plan.get(), doc.epoch()}).second) return false;
    probed_plans.push_back(plan);
    std::string chosen;
    const double routed_ns = MedianNs([&] {
      treeq::Result<QueryResult> routed =
          ExecuteCounted(plan, doc, "", nullptr);
      if (routed.ok()) chosen = EngineOf(routed.value());
    });
    double best_ns = 0;
    double chosen_ns = 0;
    for (treeq::plan::EngineKind kind_e : plan->EligibleEngines()) {
      const std::string name = treeq::plan::EngineName(kind_e);
      uint64_t visits = 0;
      bool ok = true;
      const double ns = MedianNs(
          [&] { ok = ExecuteCounted(plan, doc, name, &visits).ok(); });
      if (!ok) continue;
      EngineStats& e = engines[name];
      e.exec_us.Add(ns / 1e3);
      e.visits.Add(static_cast<double>(visits));
      if (best_ns == 0 || ns < best_ns) best_ns = ns;
      if (name == chosen) chosen_ns = ns;
    }
    r->regret = best_ns > 0 ? routed_ns / best_ns : 0;
    r->overhead_ns = routed_ns - chosen_ns;
    return true;
  };

  for (uint64_t i = warm; i < warm + prefix; ++i) {
    const Op op = w->MakeOp(i);
    tracer.BeginRequest(i);
    const Tallies t0 = Tallies::Of(server);
    OpOutcome o = w->Run(op, &tracer);
    const Tallies t1 = Tallies::Of(server);
    path.Accumulate(t0, t1);
    ++out.attempted;
    if (!o.ok) ++failed;
    traced_ns += o.latency_ns;
    if (op.write) {
      replace.Add(static_cast<double>(o.latency_ns) / 1e3);
      if (o.doc != nullptr) probe_write(o.doc);
      continue;
    }
    ++reads;
    if (o.plan == nullptr) continue;
    // Probes beside the request, outside its spans. The front end: parse,
    // lower, canonicalize and compile the request's text.
    ProbeCompile({o.language, *o.text}, &parse, &lower, &canon, &compile);
    // A plan-cache lookup of the text (a hit once the text is resident)
    // and a result-cache lookup of the request's key.
    {
      const uint64_t misses = server.plan_cache.misses();
      const uint64_t start = NowNs();
      (void)server.plan_cache.GetOrCompile(o.language, *o.text);
      const uint64_t ns = NowNs() - start;
      if (server.plan_cache.misses() == misses) {
        lookup.Add(static_cast<double>(ns) / 1e3);
      }
      const treeq::cache::ResultKey key{o.doc->epoch(),
                                        o.plan->canonical_hash().hi,
                                        o.plan->canonical_hash().lo};
      const uint64_t rc_start = NowNs();
      (void)server.result_cache.Lookup(key);
      rc_lookup.Add(static_cast<double>(NowNs() - rc_start) / 1e3);
    }
    if (t1.rc_hits == t0.rc_hits) {
      // Executed by a worker. A worker evaluates a cache-eligible request
      // through the eval-cache memo, which a direct Execute does not, so
      // the hand-off is taken from a pair that runs the same code on both
      // sides: the same (plan, document) submitted with bypass_cache, and
      // executed directly on this thread under the limits the worker had.
      treeq::engine::SubmitOptions submit_options;
      submit_options.bypass_cache = true;
      submit_options.allow_degraded = o.bounded;
      if (o.bounded) submit_options.visit_budget = o.visit_budget;
      const uint64_t submit_start = NowNs();
      (void)server.executor
          ->Submit(treeq::engine::QueryRequest{o.plan, o.doc, submit_options})
          .future.get();
      const uint64_t submitted = NowNs() - submit_start;
      treeq::ExecContext::Limits limits;
      if (o.bounded) limits.visit_budget = o.visit_budget;
      auto ctx = std::make_unique<treeq::ExecContext>(limits);
      treeq::engine::ExecuteOptions options;
      options.allow_degraded = o.bounded;
      const uint64_t start = NowNs();
      (void)o.plan->Execute(*o.doc, *ctx, options);
      const uint64_t direct = NowNs() - start;
      handoff.Add((static_cast<double>(submitted) -
                   static_cast<double>(direct)) /
                  1e3);
    }
    Routing r;
    if (probe_routing(o.plan, *o.doc, &r)) {
      if (r.regret > 0) {
        log_regret[static_cast<size_t>(o.query_class)].push_back(
            std::log(r.regret));
      }
      route_overhead.Add(r.overhead_ns / 1e3);
    }
  }
  // Every eval_mix class on every document of the workload, so each
  // engine is timed in every workload, whatever the request plans are.
  for (const QueryClass& c : EvalMixClasses()) {
    treeq::Result<PlanPtr> plan =
        treeq::engine::Plan::Compile(c.query.language, c.query.text);
    if (!plan.ok()) continue;
    for (const std::string& name : w->names()) {
      Routing unused;
      (void)probe_routing(plan.value(), *server.store.Get(name).value(),
                          &unused);
    }
  }
  // The write probe of the workloads without writes, traced the same way.
  if (w->has_write_probe()) {
    for (int k = 0; k < 12; ++k) {
      tracer.BeginRequest(warm + prefix + static_cast<uint64_t>(k));
      DocumentPtr doc;
      replace.Add(static_cast<double>(w->ProbeWrite(&tracer, &doc).wall_ns) /
                  1e3);
      if (doc != nullptr) probe_write(doc);
    }
  }
  server.tracer = nullptr;

  // Self time per span name; the request root's self time is the part of
  // a request no layer span covers.
  std::vector<uint64_t> child_ns(tracer.spans().size(), 0);
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::pair<uint64_t, uint64_t>> self_by_name;
  uint64_t request_total = 0;
  uint64_t request_self = 0;
  uint64_t executor_self = 0;
  Mean invalidate;
  for (size_t k = 0; k < tracer.spans().size(); ++k) {
    const Tracer::Span& s = tracer.spans()[k];
    const uint64_t dur = s.end_ns - s.start_ns;
    const uint64_t self = dur > child_ns[k] ? dur - child_ns[k] : 0;
    auto& agg = self_by_name[s.name];
    agg.first += self;
    agg.second += 1;
    if (std::string(s.name) == "request") {
      request_total += dur;
      request_self += self;
    }
    if (std::string(s.name) == "engine.executor") executor_self += self;
    if (std::string(s.name) == "cache.invalidate") {
      invalidate.Add(static_cast<double>(dur) / 1e3);
    }
  }
  if (!spans_path.empty()) {
    std::ofstream f(spans_path);
    f << "{\"route_regret_by_class\": {";
    bool first_class = true;
    for (size_t c = 0; c < log_regret.size(); ++c) {
      if (log_regret[c].empty()) continue;
      double mean = 0;
      for (double l : log_regret[c]) mean += l;
      mean /= static_cast<double>(log_regret[c].size());
      f << (first_class ? "" : ", ") << "\""
        << w->class_name(static_cast<int>(c)) << "\": " << std::exp(mean);
      first_class = false;
    }
    f << "},\n\"spans\": [\n";
    for (size_t k = 0; k < tracer.spans().size(); ++k) {
      const Tracer::Span& s = tracer.spans()[k];
      f << (k == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"request\": " << s.request << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}";
    }
    f << "\n], \"self_ns\": {";
    bool first = true;
    for (const auto& [name, agg] : self_by_name) {
      f << (first ? "" : ", ") << "\"" << name << "\": {\"total\": "
        << agg.first << ", \"spans\": " << agg.second << "}";
      first = false;
    }
    f << "}}\n";
  }

  // Scaling probes: every eval_mix class on catalogs of n and about 4n
  // nodes, every eligible engine.
  {
    treeq::Document small(Catalog(Mix(seed ^ 0x5ca1eULL), 660));
    treeq::Document large(Catalog(Mix(seed ^ 0x5ca1fULL), 2640));
    (void)small.label_index();
    (void)large.label_index();
    const double size_ratio = static_cast<double>(large.num_nodes()) /
                              static_cast<double>(small.num_nodes());
    for (const QueryClass& c : EvalMixClasses()) {
      treeq::Result<PlanPtr> plan =
          treeq::engine::Plan::Compile(c.query.language, c.query.text);
      if (!plan.ok()) continue;
      for (treeq::plan::EngineKind kind_e : plan.value()->EligibleEngines()) {
        const std::string name = treeq::plan::EngineName(kind_e);
        const double t_small = MedianNs(
            [&] { (void)ExecuteCounted(plan.value(), small, name, nullptr); });
        const double t_large = MedianNs(
            [&] { (void)ExecuteCounted(plan.value(), large, name, nullptr); });
        const double exponent =
            std::log(t_large / t_small) / std::log(size_ratio);
        EngineStats& e = engines[name];
        e.scaling_exp = e.scaled ? std::max(e.scaling_exp, exponent)
                                 : exponent;
        e.scaled = true;
      }
    }
  }
  w.reset();

  // --- Phase B: the same prefix untraced, for the tracing overhead --------
  uint64_t untraced_ns = 0;
  {
    std::unique_ptr<Workload> plain = SetUp(kind, seed);
    (void)Replay(plain.get(), 0, warm, &failed);
    untraced_ns = Replay(plain.get(), warm, warm + prefix, &failed);
    out.attempted += prefix;
  }

  // --- Phase C: the prefix from two clients, for singleflight -------------
  double follower_share = 0;
  {
    std::unique_ptr<Workload> pair = SetUp(kind, seed);
    (void)Replay(pair.get(), 0, warm, &failed);
    const treeq::cache::InflightTable& flights =
        pair->server().executor->inflight();
    const uint64_t leaders0 = flights.leaders();
    const uint64_t followers0 = flights.followers();
    std::atomic<uint64_t> next{warm};
    std::atomic<uint64_t> pair_failed{0};
    auto client = [&] {
      for (uint64_t i = next.fetch_add(1); i < warm + prefix;
           i = next.fetch_add(1)) {
        if (!pair->Run(pair->MakeOp(i), nullptr).ok) pair_failed.fetch_add(1);
      }
    };
    std::thread a(client);
    std::thread b(client);
    a.join();
    b.join();
    failed += pair_failed.load();
    out.attempted += prefix;
    const uint64_t leaders = flights.leaders() - leaders0;
    const uint64_t followers = flights.followers() - followers0;
    follower_share = Ratio(followers, leaders + followers);
  }
  out.failed = failed;

  auto& m = out.metrics;
  m["query.parse_us"] = {parse.value(), "us"};
  m["plan.lower_us"] = {lower.value(), "us"};
  m["plan.canonicalize_us"] = {canon.value(), "us"};
  m["plan.route_overhead_us"] = {route_overhead.value(), "us"};
  double regret_sum = 0;
  double regret_max = 0;
  int classes = 0;
  for (const auto& logs : log_regret) {
    if (logs.empty()) continue;
    double mean = 0;
    for (double l : logs) mean += l;
    mean /= static_cast<double>(logs.size());
    regret_sum += mean;
    regret_max = std::max(regret_max, std::exp(mean));
    ++classes;
  }
  m["plan.route_regret_geomean"] = {
      classes == 0 ? 1.0 : std::exp(regret_sum / classes), "ratio"};
  m["plan.route_regret_max"] = {classes == 0 ? 1.0 : regret_max, "ratio"};
  m["engine.compile_us"] = {compile.value(), "us"};
  m["engine.plan_cache.lookup_us"] = {lookup.value(), "us"};
  m["engine.plan_cache.hit_ratio"] = {
      Ratio(path.pc_hits, path.pc_hits + path.pc_misses),
      "ratio"};
  m["engine.plan_cache.canonical_hits"] = {
      static_cast<double>(path.pc_canonical), "count"};
  m["engine.handoff_us"] = {handoff.value(), "us"};
  m["engine.queue_wait_us"] = {
      Ratio(path.wait_sum, path.wait_count) / 1e3,
      "us"};
  m["engine.store.replace_us"] = {replace.value(), "us"};
  m["tree.orders_us"] = {orders.value(), "us"};
  m["tree.label_index_us"] = {label_index.value(), "us"};
  m["cache.result.hit_ratio"] = {
      Ratio(path.rc_hits, path.rc_hits + path.rc_misses),
      "ratio"};
  m["cache.result.lookup_us"] = {rc_lookup.value(), "us"};
  m["cache.result.evictions"] = {
      static_cast<double>(path.rc_evictions), "count"};
  m["cache.eval.hit_ratio"] = {
      Ratio(path.ec_hits, path.ec_hits + path.ec_misses),
      "ratio"};
  m["cache.singleflight.follower_share"] = {follower_share, "ratio"};
  m["cache.invalidate_us"] = {invalidate.value(), "us"};
  m["tree.axes.words_scanned"] = {Ratio(path.words, reads), "count"};
  m["cq.ac.propagation_rounds"] = {Ratio(path.ac_rounds, reads), "count"};
  for (const auto& [name, e] : engines) {
    m[name + ".exec_us"] = {e.exec_us.value(), "us"};
    m[name + ".visits"] = {e.visits.value(), "count"};
    m[name + ".scaling_exp"] = {e.scaling_exp, "exp"};
  }
  m["trace.unattributed_share"] = {Ratio(request_self, request_total),
                                   "ratio"};
  // Submit->ready is one opaque span seen from outside (routing, cache
  // lookups, queue, evaluation on a worker); the probes above break it
  // down, the spans cannot.
  m["trace.executor_self_share"] = {Ratio(executor_self, request_total),
                                    "ratio"};
  m["trace.overhead_ratio"] = {Ratio(traced_ns, untraced_ns), "ratio"};
  return out;
}

}  // namespace perfbench
