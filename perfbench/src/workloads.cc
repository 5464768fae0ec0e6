// The three workloads: corpus, query classes or text pool, reference
// answers, and the request sequence each replays.
//
//   eval_mix      8 query classes in all four languages over 6 catalogs
//                 of 60-240 products (about 0.7k-2.6k nodes); plans
//                 compiled in set-up, every request bypasses the caches.
//                 One class carries a visit budget with allow_degraded,
//                 so it runs xpath.stream. Evaluation and routing carry it.
//   serve_zipf    query text per request through PlanCache and Submit
//                 with every cache and singleflight on; a pool of
//                 template families x label parameters x spellings x
//                 whitespace/renaming variants, drawn Zipf (s=1) over
//                 (text, document) pairs on 8 small catalogs of 440
//                 nodes, 3% texts never seen before. The key space
//                 exceeds both caches (72 plans, 512 results), so both
//                 evict. The front end and the caches carry it.
//   churn_update  the eval_mix classes as text with caches on over 6
//                 catalogs of 150 products (about 1.6k nodes), plus
//                 every 50th operation a DocumentStore::Replace with a
//                 freshly generated catalog; the store's eviction
//                 listeners invalidate both caches. The store, orders,
//                 label index and cache invalidation carry it.

#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "perfbench.h"
#include "plan/cost.h"
#include "tree/generator.h"
#include "util/exec_context.h"
#include "util/random.h"

namespace perfbench {

using treeq::engine::Executor;
using treeq::engine::Plan;
using treeq::engine::QueryRequest;
using treeq::engine::SubmitOptions;

// ---------------------------------------------------------------------------
// Shared pieces

namespace {

/// CPU clocks of the threads WatchServingThreads registered, and their
/// summed reading when an operation last reached a worker.
std::vector<clockid_t>& WatchedClocks() {
  static std::vector<clockid_t> clocks;
  return clocks;
}
uint64_t workers_seen_ns = 0;

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t WorkersNs() {
  uint64_t ns = 0;
  for (clockid_t clock : WatchedClocks()) ns += ClockNs(clock);
  return ns;
}

}  // namespace

size_t BlockShuffled(uint64_t seed, uint64_t i, size_t n) {
  std::array<uint8_t, 64> perm;
  for (size_t k = 0; k < n; ++k) perm[k] = static_cast<uint8_t>(k);
  const uint64_t block = Mix(seed ^ Mix(0xb10c4ULL + i / n));
  const size_t want = static_cast<size_t>(i % n);
  // Fisher-Yates, stopped once position `want` is final.
  for (size_t k = 0; k <= want; ++k) {
    const size_t j = k + static_cast<size_t>(Mix(block + k) % (n - k));
    std::swap(perm[k], perm[j]);
  }
  return perm[want];
}

uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

uint64_t ServingCpuNs(uint64_t thread_start, bool reached_worker) {
  uint64_t ns = ThreadCpuNs() - thread_start;
  if (reached_worker && !WatchedClocks().empty()) {
    const uint64_t workers = WorkersNs();
    ns += workers - workers_seen_ns;
    workers_seen_ns = workers;
  }
  return ns;
}

size_t WatchServingThreads() {
  std::vector<clockid_t>& clocks = WatchedClocks();
  clocks.clear();
  const long self = syscall(SYS_gettid);
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const long tid = std::stol(entry.path().filename().string());
    if (tid == self) continue;
    // Linux's clock id for the CPU time of thread `tid`, the value
    // pthread_getcpuclockid returns for it.
    clocks.push_back(static_cast<clockid_t>(
        (~static_cast<uint32_t>(tid) << 3) | 6u));
  }
  workers_seen_ns = WorkersNs();
  return clocks.size();
}

Answer Digest(const QueryResult& result) {
  Answer a;
  auto tuple_hash = [](const treeq::NodeId* v, size_t n) {
    uint64_t h = 0x6a09e667f3bcc909ULL;
    for (size_t k = 0; k < n; ++k) h = Mix(h ^ static_cast<uint64_t>(v[k]));
    return h;
  };
  if (result.is_boolean()) {
    a.cardinality = result.boolean() ? 1 : 0;
    a.hash = result.boolean() ? 0x5eedULL : 0xdeadULL;
  } else if (result.is_nodes()) {
    result.nodes().ForEachMember([&](treeq::NodeId v) {
      ++a.cardinality;
      a.hash += tuple_hash(&v, 1);
    });
  } else {
    for (const auto& t : result.tuples()) {
      ++a.cardinality;
      a.hash += tuple_hash(t.data(), t.size());
    }
  }
  return a;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  saved_parent_ = tracer_->current_;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(
      Span{name, saved_parent_, tracer_->request_, NowNs(), 0});
  tracer_->current_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_ns = NowNs();
  tracer_->current_ = saved_parent_;
}

Server::Server(const Config& config)
    : result_cache(treeq::cache::ResultCacheOptions{
          .max_entries = config.result_cache_entries}),
      plan_cache(config.plan_cache_capacity) {
  store.AddEvictionListener([this](uint64_t epoch) {
    Tracer::Scope scope(tracer, "cache.invalidate");
    result_cache.InvalidateDocument(epoch);
    eval_cache.InvalidateDocument(epoch);
  });
  executor = std::make_unique<Executor>(
      Executor::Options{.num_workers = 2,
                        .queue_capacity = 64,
                        .eval_cache = &eval_cache,
                        .result_cache = &result_cache,
                        .singleflight = true});
}

void VersionMap::Set(uint64_t epoch, int variant) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    variants_[epoch] = variant;
  }
  cv_.notify_all();
}

int VersionMap::Find(uint64_t epoch) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return variants_.count(epoch) != 0; });
  return variants_[epoch];
}

namespace {

Tree CatalogWithProducts(uint64_t seed, int products) {
  treeq::Rng rng(seed);
  treeq::CatalogOptions options;
  options.num_products = products;
  return treeq::CatalogDocument(&rng, options);
}

}  // namespace

Tree Catalog(uint64_t seed, int nodes) {
  // The generator draws products one after another, so one more product
  // appends one more product subtree. Step the product count to the one
  // whose node count is closest to the target.
  int products = std::max(1, nodes / 11);
  Tree tree = CatalogWithProducts(seed, products);
  const int step = tree.num_nodes() < nodes ? 1 : -1;
  while (products + step >= 1) {
    Tree next = CatalogWithProducts(seed, products + step);
    if (std::abs(next.num_nodes() - nodes) >= std::abs(tree.num_nodes() - nodes)) {
      break;
    }
    tree = std::move(next);
    products += step;
  }
  return tree;
}

treeq::Result<QueryResult> ExecuteCounted(const PlanPtr& plan,
                                          const treeq::Document& doc,
                                          const std::string& engine,
                                          uint64_t* visits) {
  treeq::ExecContext::Limits limits;
  limits.deadline = treeq::ExecContext::Clock::now() + std::chrono::hours(1);
  treeq::ExecContext ctx(limits);
  treeq::engine::ExecuteOptions options;
  options.force_route = engine;
  treeq::Result<QueryResult> r = plan->Execute(doc, ctx, options);
  if (visits != nullptr) *visits = ctx.visits_used();
  return r;
}

std::string EngineOf(const QueryResult& result) {
  std::optional<treeq::plan::EngineKind> kind =
      treeq::plan::ParseEngineName(result.engine);
  return kind.has_value() ? treeq::plan::EngineName(*kind) : result.engine;
}

namespace {

/// The eligible engine other than `routed` used for reference answers:
/// the first eligible non-naive engine, else the first naive one.
std::string ReferenceEngine(const Plan& plan, const std::string& routed) {
  std::string naive;
  for (treeq::plan::EngineKind kind : plan.EligibleEngines()) {
    const std::string name = treeq::plan::EngineName(kind);
    if (name == routed) continue;
    const bool is_naive = kind == treeq::plan::EngineKind::kXPathNaive ||
                          kind == treeq::plan::EngineKind::kFoNaive;
    if (!is_naive) return name;
    if (naive.empty()) naive = name;
  }
  return naive;
}

[[noreturn]] void SetupFailure(const std::string& what) {
  std::fprintf(stderr, "perfbench: set-up failed: %s\n", what.c_str());
  std::exit(3);
}

PlanPtr MustCompile(const QueryText& q) {
  treeq::Result<PlanPtr> plan = Plan::Compile(q.language, q.text);
  if (!plan.ok()) SetupFailure(q.text + ": " + plan.status().ToString());
  return std::move(plan).value();
}

/// The reference answer of (spellings[0], doc): routed once to learn the
/// engine the router picks, then answered via force_route by a different
/// eligible engine of the first spelling that has one (equivalent
/// spellings in other languages follow the first). The two must agree.
/// `answering_engine` overrides the routed engine as the one to avoid.
Answer ReferenceAnswer(const std::vector<PlanPtr>& spellings,
                       const treeq::Document& doc,
                       const std::string& answering_engine = "") {
  const PlanPtr& plan = spellings.front();
  treeq::Result<QueryResult> routed = ExecuteCounted(plan, doc, "", nullptr);
  if (!routed.ok()) SetupFailure(plan->text() + " routed run failed");
  const std::string skip =
      answering_engine.empty() ? EngineOf(routed.value()) : answering_engine;
  for (const PlanPtr& other : spellings) {
    const std::string alt = ReferenceEngine(*other, skip);
    if (alt.empty()) continue;
    treeq::Result<QueryResult> ref = ExecuteCounted(other, doc, alt, nullptr);
    if (!ref.ok()) SetupFailure(other->text() + " reference run failed");
    const Answer answer = Digest(ref.value());
    if (!(Digest(routed.value()) == answer)) {
      SetupFailure(plan->text() + ": " + EngineOf(routed.value()) + " and " +
                   alt + " disagree");
    }
    return answer;
  }
  SetupFailure(plan->text() + " has no second eligible engine");
}

/// Class `c`'s plan followed by the plan of the class it is a spelling
/// of, if any.
std::vector<PlanPtr> Spellings(const std::vector<PlanPtr>& plans, size_t c) {
  std::vector<PlanPtr> out = {plans[c]};
  const int same_as = EvalMixClasses()[c].same_as;
  if (same_as >= 0) out.push_back(plans[static_cast<size_t>(same_as)]);
  return out;
}

void DigestTree(const Tree& tree, Fnv* fnv) {
  fnv->U64(static_cast<uint64_t>(tree.num_nodes()));
  for (treeq::NodeId n = 0; n < tree.num_nodes(); ++n) {
    fnv->U64(static_cast<uint64_t>(tree.parent(n)));
    for (treeq::LabelId l : tree.labels(n)) fnv->U64(static_cast<uint64_t>(l));
  }
}

/// Registers the catalogs and warms each document's label index.
void AddCorpus(Server* server, const std::vector<std::string>& names,
               std::vector<Tree> trees) {
  for (size_t s = 0; s < names.size(); ++s) {
    treeq::Result<DocumentPtr> doc =
        server->store.Add(names[s], std::move(trees[s]));
    if (!doc.ok()) SetupFailure("Add " + names[s]);
    (void)doc.value()->label_index();
  }
}

uint64_t SlotSeed(uint64_t seed, int slot, int variant) {
  return Mix(seed * 1000003ULL + static_cast<uint64_t>(slot) * 97ULL +
             static_cast<uint64_t>(variant));
}

}  // namespace

const std::vector<QueryClass>& EvalMixClasses() {
  // The bench_engine_throughput mix (with //product//rating5 in place of
  // //review/rating5: only there does a visit budget separate xpath.stream
  // from the set-at-a-time engine) plus two cross-dialect spellings of
  // //product//rating5, the bounded class. The CQ spelling compiled on
  // its own has a single eligible engine, so its reference answer comes
  // from the XPath spelling.
  static const std::vector<QueryClass> kClasses = {
      {"xpath_qualifier",
       {Language::kXPath, "/catalog/product[reviews/review]/name"},
       false},
      {"xpath_bounded", {Language::kXPath, "//product//rating5"}, true},
      {"cq_boolean",
       {Language::kCq, "Q() :- Child+(x, y), Lab_product(x), Lab_rating1(y)."},
       false},
      {"cq_kary",
       {Language::kCq,
        "Q(p, r) :- Child+(p, r), Lab_product(p), Lab_review(r)."},
       false},
      {"datalog_tmnf",
       {Language::kDatalog,
        "Good(x) :- Lab_rating5(x).\nHasGood(x) :- Child(x, y), Good(y).\n"
        "?- HasGood."},
       false},
      {"fo_positive",
       {Language::kFo,
        "exists x . exists y . (Child(x, y) and Lab_review(x) and "
        "Lab_rating5(y))"},
       false},
      {"cq_alias",
       {Language::kCq,
        "Q(b) :- Lab_rating5(b), Child+(a, b), Child+(c, a), "
        "Lab_product(a)."},
       false,
       1},
      {"datalog_alias",
       {Language::kDatalog,
        "Q(y) :- Child+(w, x), Child+(x, y), Lab_product(x), "
        "Lab_rating5(y). ?- Q."},
       false,
       1},
  };
  return kClasses;
}

Timing Workload::TimedReplace(const std::string& name, Tree tree,
                              Tracer* tracer, DocumentPtr* out) {
  // Hold the outgoing version across the call: it is freed when its last
  // reader lets go, which is no part of the write itself, and freeing it
  // inside the timed call made the time depend on heap layout.
  treeq::Result<DocumentPtr> old = server_->store.Get(name);
  const uint64_t start = NowNs();
  const uint64_t cpu_start = ThreadCpuNs();
  treeq::Result<DocumentPtr> doc = [&] {
    Tracer::Scope scope(tracer, "engine.store.replace");
    return server_->store.Replace(name, std::move(tree));
  }();
  Timing t;
  t.cpu_ns = ServingCpuNs(cpu_start, false);
  t.wall_ns = NowNs() - start;
  if (!doc.ok()) return Timing{};
  if (out != nullptr) *out = std::move(doc).value();
  return t;
}

constexpr const char* kProbeName = "write-probe";

Timing Workload::ProbeWrite(Tracer* tracer, DocumentPtr* out) {
  Tree copy = *probe_tree_;
  return TimedReplace(kProbeName, std::move(copy), tracer, out);
}

void Workload::AddWriteProbe(Tree tree) {
  probe_tree_.emplace(std::move(tree));
  if (!server_->store.Add(kProbeName, *probe_tree_).ok()) {
    SetupFailure("Add write probe");
  }
}

uint64_t Workload::InputDigest() const {
  Fnv fnv;
  fnv.U64(corpus_digest_);
  DigestPool(&fnv);
  for (uint64_t i = 0; i < (uint64_t{1} << 16); ++i) {
    const Op op = MakeOp(i);
    fnv.U64(op.write);
    fnv.U64(static_cast<uint64_t>(op.query));
    fnv.U64(static_cast<uint64_t>(op.slot));
    fnv.U64(static_cast<uint64_t>(op.variant));
    fnv.Str(op.fresh_text);
  }
  return fnv.h;
}

namespace {

// ---------------------------------------------------------------------------
// eval_mix

// Node counts of the six eval_mix documents (60 to 240 products).
constexpr int kEvalMixNodes[] = {660, 1056, 1452, 1848, 2244, 2640};

class EvalMix : public Workload {
 public:
  explicit EvalMix(uint64_t seed) {
    seed_ = seed;
    server_ = std::make_unique<Server>(Server::Config{});
    std::vector<Tree> trees;
    Fnv fnv;
    for (int s = 0; s < static_cast<int>(std::size(kEvalMixNodes)); ++s) {
      names_.push_back("catalog" + std::to_string(s));
      trees.push_back(Catalog(SlotSeed(seed, s, 0), kEvalMixNodes[s]));
      DigestTree(trees.back(), &fnv);
    }
    corpus_digest_ = fnv.h;
    AddCorpus(server_.get(), names_, std::move(trees));
    AddWriteProbe(Catalog(SlotSeed(seed, static_cast<int>(names_.size()), 0),
                          kEvalMixNodes[std::size(kEvalMixNodes) - 1]));
    for (const QueryClass& c : EvalMixClasses()) {
      plans_.push_back(MustCompile(c.query));
    }
    refs_.assign(plans_.size(), std::vector<Answer>(names_.size()));
    budgets_.assign(plans_.size(),
                    std::vector<uint64_t>(names_.size(), UINT64_MAX));
    for (size_t c = 0; c < plans_.size(); ++c) {
      for (size_t s = 0; s < names_.size(); ++s) {
        DocumentPtr doc = server_->store.Get(names_[s]).value();
        if (EvalMixClasses()[c].bounded) {
          refs_[c][s] = ReferenceAnswer(Spellings(plans_, c), *doc,
                                        "xpath.stream");
          budgets_[c][s] = BoundedBudget(plans_[c], *doc);
        } else {
          refs_[c][s] = ReferenceAnswer(Spellings(plans_, c), *doc);
        }
      }
    }
  }

  Op MakeOp(uint64_t i) const override {
    // Blocks of 49: the 48 (class, document) pairs once each, and pair 0
    // once more. With every pair equally common, the median read would
    // sit on the boundary between two pairs' cost clusters and jump
    // between them from one window to the next; with 49 slots it sits in
    // the middle of one.
    const size_t pairs = plans_.size() * names_.size();
    const size_t k = BlockShuffled(seed_, i, pairs + 1);
    const size_t pair = k == pairs ? 0 : k;
    Op op;
    op.query = static_cast<int>(pair / names_.size());
    op.slot = static_cast<int>(pair % names_.size());
    return op;
  }

  OpOutcome Run(const Op& op, Tracer* tracer) override {
    OpOutcome out;
    const size_t c = static_cast<size_t>(op.query);
    const size_t s = static_cast<size_t>(op.slot);
    out.query_class = op.query;
    out.language = EvalMixClasses()[c].query.language;
    out.text = &EvalMixClasses()[c].query.text;
    out.plan = plans_[c];
    const uint64_t start = NowNs();
    const uint64_t cpu_start = ThreadCpuNs();
    const uint64_t rc_hits = server_->result_cache.hits();
    {
      Tracer::Scope request(tracer, "request");
      {
        Tracer::Scope get(tracer, "engine.store.get");
        out.doc = server_->store.Get(names_[s]).value();
      }
      SubmitOptions options;
      options.bypass_cache = true;
      if (EvalMixClasses()[c].bounded) {
        options.visit_budget = budgets_[c][s];
        options.allow_degraded = true;
        out.bounded = true;
        out.visit_budget = budgets_[c][s];
      }
      treeq::Result<QueryResult> r = [&] {
        Tracer::Scope submit(tracer, "engine.executor");
        return server_->executor
            ->Submit(QueryRequest{out.plan, out.doc, options})
            .future.get();
      }();
      Tracer::Scope check(tracer, "bench.check");
      out.ok = r.ok() && Digest(r.value()) == refs_[c][s];
    }
    out.cpu_ns = ServingCpuNs(
        cpu_start, out.plan != nullptr &&
                       server_->result_cache.hits() == rc_hits);
    out.latency_ns = NowNs() - start;
    return out;
  }

  uint64_t warmup_ops() const override { return 64; }
  int num_classes() const override { return static_cast<int>(plans_.size()); }
  const char* class_name(int c) const override {
    return EvalMixClasses()[static_cast<size_t>(c)].name;
  }

 private:
  void DigestPool(Fnv* fnv) const override {
    for (const QueryClass& c : EvalMixClasses()) fnv->Str(c.query.text);
    for (const auto& row : budgets_) {
      for (uint64_t b : row) fnv->U64(b);
    }
  }

  /// A visit budget between what xpath.stream spends and what the
  /// set-at-a-time engine spends on (plan, doc), both measured under a
  /// deadline-only context. Under it the bounded request degrades to
  /// xpath.stream and completes.
  static uint64_t BoundedBudget(const PlanPtr& plan,
                                const treeq::Document& doc) {
    uint64_t stream = 0;
    uint64_t set_at_a_time = 0;
    if (!ExecuteCounted(plan, doc, "xpath.stream", &stream).ok() ||
        !ExecuteCounted(plan, doc, "xpath.set_at_a_time", &set_at_a_time)
             .ok() ||
        stream >= set_at_a_time) {
      SetupFailure("no visit budget separates xpath.stream from "
                   "xpath.set_at_a_time for " + plan->text());
    }
    const uint64_t budget = stream + (set_at_a_time - stream) / 2;
    std::unique_ptr<treeq::ExecContext> ctx =
        std::make_unique<treeq::ExecContext>(
            treeq::ExecContext::Limits{.visit_budget = budget});
    treeq::engine::ExecuteOptions options;
    options.allow_degraded = true;
    treeq::Result<QueryResult> r = plan->Execute(doc, *ctx, options);
    if (!r.ok() || !r.value().degraded) {
      SetupFailure("bounded class does not degrade to xpath.stream");
    }
    return budget;
  }

  std::vector<PlanPtr> plans_;
  std::vector<std::vector<Answer>> refs_;
  std::vector<std::vector<uint64_t>> budgets_;
};

// ---------------------------------------------------------------------------
// serve_zipf

// The eight serve_zipf documents all have 440 nodes (40 products): misses
// then cost one thing per query family, and the p99 falls inside the
// cluster of misses on the dichotomy-routed Boolean families instead of
// on the boundary between two document sizes.
constexpr int kZipfSlots = 8;
constexpr int kZipfNodes = 440;
constexpr uint64_t kFreshPerMille = 30;

/// One spelling template: `$0`..`$3` are variable slots; `renameable`
/// spellings get variable-renaming variants (and fresh texts).
struct Spelling {
  Language language;
  std::string text;
  bool renameable;
};

struct Family {
  const char* name;
  /// Label parameter sets; each yields one semantic query.
  std::vector<std::vector<std::string>> params;
  /// Spellings with {0}, {1} label slots.
  std::vector<Spelling> spellings;
};

/// Instantiates a spelling: "{k}" becomes label parameter k and "$k"
/// variable name k.
std::string Fill(const std::string& text,
                 const std::vector<std::string>& params,
                 const std::vector<std::string>& vars) {
  std::string out;
  for (size_t i = 0; i < text.size(); ++i) {
    const bool has_digit = i + 1 < text.size() && text[i + 1] >= '0' &&
                           text[i + 1] <= '9';
    const size_t k = has_digit ? static_cast<size_t>(text[i + 1] - '0') : 0;
    if (text[i] == '{' && has_digit && i + 2 < text.size() &&
        text[i + 2] == '}' && k < params.size()) {
      out += params[k];
      i += 2;
    } else if (text[i] == '$' && has_digit && k < vars.size()) {
      out += vars[k];
      i += 1;
    } else {
      out += text[i];
    }
  }
  return out;
}

std::vector<std::vector<std::string>> Cross(
    const std::vector<std::string>& a, const std::vector<std::string>& b) {
  std::vector<std::vector<std::string>> out;
  for (const auto& x : a) {
    for (const auto& y : b) out.push_back({x, y});
  }
  return out;
}

const std::vector<Family>& Families() {
  const std::vector<std::string> ratings = {"rating1", "rating2", "rating3",
                                            "rating4", "rating5"};
  const std::vector<std::vector<std::string>> child_pairs = {
      {"review", "rating1"}, {"review", "rating2"}, {"review", "rating3"},
      {"review", "rating4"}, {"review", "rating5"}, {"product", "name"},
      {"product", "price"},  {"desc", "para"},      {"reviews", "review"}};
  auto with = [](std::vector<std::string> v,
                 std::initializer_list<const char*> more) {
    for (const char* m : more) v.push_back(m);
    return v;
  };
  static const std::vector<Family> kFamilies = {
      {"xpath_qualifier",
       Cross({"reviews/review", "desc/para", "reviews/review/comment"},
             {"name", "price", "desc"}),
       {{Language::kXPath, "/catalog/product[{0}]/{1}", false},
        {Language::kXPath, "/catalog/product[ {0} ] / {1}", false}}},
      {"xpath_child",
       child_pairs,
       {{Language::kXPath, "//{0}/{1}", false},
        {Language::kXPath, " //{0} / {1}", false},
        {Language::kCq,
         "Q($1) :- Child+($2, $0), Child($0, $1), Lab_{0}($0), Lab_{1}($1).",
         true},
        {Language::kDatalog,
         "Q($1) :- Child+($2, $0), Child($0, $1), Lab_{0}($0), Lab_{1}($1). "
         "?- Q.",
         true}}},
      {"cq_boolean",
       Cross({"product", "reviews", "desc"},
             with(ratings, {"para", "emph", "comment"})),
       {{Language::kCq, "Q() :- Child+($0, $1), Lab_{0}($0), Lab_{1}($1).",
         true},
        {Language::kCq, "Q() :- Lab_{1}($1), Lab_{0}($0), Child+($0, $1).",
         true},
        {Language::kFo,
         "exists $0 . exists $1 . (Child+($0, $1) and Lab_{0}($0) and "
         "Lab_{1}($1))",
         true}}},
      {"cq_kary",
       Cross({"product"}, with(ratings, {"review", "para", "name",
                                         "comment"})),
       {{Language::kCq,
         "Q($0, $1) :- Child+($0, $1), Lab_{0}($0), Lab_{1}($1).", true},
        {Language::kCq,
         "Q($0, $1) :- Lab_{1}($1), Child+($0, $1), Lab_{0}($0).", true}}},
      {"datalog_tmnf",
       Cross({"x"}, with(ratings, {"name", "para", "review"})),
       {{Language::kDatalog,
         "Good($0) :- Lab_{1}($0).\nHasGood($0) :- Child($0, $1), "
         "Good($1).\n?- HasGood.",
         true},
        {Language::kDatalog,
         "Hit($0) :- Lab_{1}($0).\nHas($0) :- Child($0, $1), Hit($1).\n"
         "?- Has.",
         true},
        {Language::kCq, "Q($0) :- Child($0, $1), Lab_{1}($1).", true}}},
      {"fo_positive",
       child_pairs,
       {{Language::kFo,
         "exists $0 . exists $1 . (Child($0, $1) and Lab_{0}($0) and "
         "Lab_{1}($1))",
         true},
        {Language::kCq, "Q() :- Child($0, $1), Lab_{0}($0), Lab_{1}($1).",
         true}}},
      {"alias",
       Cross({"product", "reviews"}, with(ratings, {"comment"})),
       {{Language::kXPath, "//{0}//{1}", false},
        {Language::kXPath, "//{0} // {1} ", false},
        {Language::kCq,
         "Q($1) :- Child+($2, $0), Child+($0, $1), Lab_{0}($0), "
         "Lab_{1}($1).",
         true},
        {Language::kCq,
         "Q($1) :- Lab_{1}($1), Child+($0, $1), Child+($2, $0), "
         "Lab_{0}($0).",
         true},
        {Language::kDatalog,
         "Q($1) :- Child+($2, $0), Child+($0, $1), Lab_{0}($0), "
         "Lab_{1}($1). ?- Q.",
         true}}},
  };
  return kFamilies;
}

const std::vector<std::vector<std::string>> kVarNames = {
    {"x", "y", "z", "w"}, {"a", "b", "c", "d"}, {"v1", "v2", "v3", "v4"}};

class ServeZipf : public Workload {
 public:
  explicit ServeZipf(uint64_t seed) {
    seed_ = seed;
    server_ = std::make_unique<Server>(Server::Config{
        .plan_cache_capacity = 72, .result_cache_entries = 512});
    std::vector<Tree> trees;
    Fnv fnv;
    for (int s = 0; s < kZipfSlots; ++s) {
      names_.push_back("shop" + std::to_string(s));
      trees.push_back(Catalog(SlotSeed(seed, s, 0), kZipfNodes));
      DigestTree(trees.back(), &fnv);
    }
    corpus_digest_ = fnv.h;
    AddCorpus(server_.get(), names_, std::move(trees));
    AddWriteProbe(Catalog(SlotSeed(seed, static_cast<int>(names_.size()), 0), kZipfNodes));
    BuildPool();
    // References: one per (semantic query, document), from its first
    // spelling; every other spelling must give the same answer.
    refs_.assign(semantics_.size(), std::vector<Answer>(names_.size()));
    for (size_t q = 0; q < semantics_.size(); ++q) {
      std::vector<PlanPtr> spellings;
      for (size_t t : semantics_[q].spellings) {
        spellings.push_back(MustCompile(texts_[t].query));
      }
      for (size_t s = 0; s < names_.size(); ++s) {
        refs_[q][s] =
            ReferenceAnswer(spellings, *server_->store.Get(names_[s]).value());
      }
    }
    // Zipf(s=1) over (text, document) pairs. The popularity order is
    // stratified by semantic query: every rank prefix holds each query's
    // pairs in proportion to how many it has, so every seed puts the same
    // mix of queries, and hence of result sizes, at the head. The seed
    // picks which text and document of a query sit at which of its ranks.
    std::vector<std::vector<size_t>> groups(semantics_.size());
    for (size_t t = 0; t < texts_.size(); ++t) {
      for (size_t s = 0; s < names_.size(); ++s) {
        groups[static_cast<size_t>(texts_[t].semantic)].push_back(
            t * names_.size() + s);
      }
    }
    for (std::vector<size_t>& g : groups) {
      for (size_t k = g.size() - 1; k > 0; --k) {
        std::swap(g[k], g[Mix(seed ^ g[k] ^ (k * 7919)) % (k + 1)]);
      }
    }
    std::vector<size_t> taken(groups.size(), 0);
    const size_t pairs = texts_.size() * names_.size();
    for (size_t r = 0; r < pairs; ++r) {
      size_t pick = 0;
      double lowest = 2;
      for (size_t q = 0; q < groups.size(); ++q) {
        if (taken[q] == groups[q].size()) continue;
        const double share = (static_cast<double>(taken[q]) + 0.5) /
                             static_cast<double>(groups[q].size());
        if (share < lowest) {
          lowest = share;
          pick = q;
        }
      }
      pair_order_.push_back(groups[pick][taken[pick]++]);
    }
    cdf_.resize(pairs);
    double total = 0;
    for (size_t r = 0; r < pairs; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  Op MakeOp(uint64_t i) const override {
    const uint64_t r = Mix(seed_ ^ Mix(i));
    Op op;
    if (r % 1000 < kFreshPerMille) {
      const uint64_t r2 = Mix(r);
      const Fresh& f = renameable_[r2 % renameable_.size()];
      const std::string tag = std::to_string(i);
      op.fresh_text = Fill(f.spelling->text, *f.params,
                           {"f" + tag + "a", "f" + tag + "b", "f" + tag + "c",
                            "f" + tag + "d"});
      op.fresh_language = f.spelling->language;
      op.fresh_semantic = f.semantic;
      op.query = -1;
      op.slot = static_cast<int>((r2 >> 20) % names_.size());
      return op;
    }
    const double u =
        static_cast<double>(r >> 11) / static_cast<double>(uint64_t{1} << 53);
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    const size_t pair = pair_order_[std::min(rank, cdf_.size() - 1)];
    op.query = static_cast<int>(pair / names_.size());
    op.slot = static_cast<int>(pair % names_.size());
    return op;
  }

  OpOutcome Run(const Op& op, Tracer* tracer) override {
    OpOutcome out;
    const bool fresh = op.query < 0;
    const QueryText* text =
        fresh ? nullptr : &texts_[static_cast<size_t>(op.query)].query;
    const int semantic =
        fresh ? op.fresh_semantic
              : texts_[static_cast<size_t>(op.query)].semantic;
    out.query_class = semantics_[static_cast<size_t>(semantic)].family;
    out.language = fresh ? op.fresh_language : text->language;
    out.text = fresh ? &op.fresh_text : &text->text;
    const size_t s = static_cast<size_t>(op.slot);
    const uint64_t start = NowNs();
    const uint64_t cpu_start = ThreadCpuNs();
    const uint64_t rc_hits = server_->result_cache.hits();
    {
      Tracer::Scope request(tracer, "request");
      {
        Tracer::Scope get(tracer, "engine.store.get");
        out.doc = server_->store.Get(names_[s]).value();
      }
      bool plan_cache_hit = false;
      treeq::Result<PlanPtr> plan = [&] {
        Tracer::Scope lookup(tracer, "engine.plan_cache");
        return server_->plan_cache.GetOrCompile(out.language, *out.text,
                                                &plan_cache_hit);
      }();
      if (plan.ok()) {
        out.plan = plan.value();
        SubmitOptions options;
        options.plan_cache_hit = plan_cache_hit;
        treeq::Result<QueryResult> r = [&] {
          Tracer::Scope submit(tracer, "engine.executor");
          return server_->executor
              ->Submit(QueryRequest{out.plan, out.doc, options})
              .future.get();
        }();
        Tracer::Scope check(tracer, "bench.check");
        out.ok = r.ok() &&
                 Digest(r.value()) == refs_[static_cast<size_t>(semantic)][s];
      }
    }
    out.cpu_ns = ServingCpuNs(
        cpu_start, out.plan != nullptr &&
                       server_->result_cache.hits() == rc_hits);
    out.latency_ns = NowNs() - start;
    return out;
  }

  uint64_t warmup_ops() const override { return 20000; }
  int num_classes() const override {
    return static_cast<int>(Families().size());
  }
  const char* class_name(int c) const override {
    return Families()[static_cast<size_t>(c)].name;
  }

  /// Every (text, document) pair of the pool against its reference; the
  /// benchmark's short check mode runs it.
  int VerifyPool() {
    int bad = 0;
    for (const PoolText& t : texts_) {
      PlanPtr plan = MustCompile(t.query);
      for (size_t s = 0; s < names_.size(); ++s) {
        treeq::Result<QueryResult> r = ExecuteCounted(
            plan, *server_->store.Get(names_[s]).value(), "", nullptr);
        if (!r.ok() || !(Digest(r.value()) ==
                         refs_[static_cast<size_t>(t.semantic)][s])) {
          std::fprintf(stderr, "pool mismatch: %s on %s\n",
                       t.query.text.c_str(), names_[s].c_str());
          ++bad;
        }
      }
    }
    return bad;
  }
  size_t pool_size() const { return texts_.size(); }
  size_t semantic_count() const { return semantics_.size(); }

 private:
  struct PoolText {
    QueryText query;
    int semantic;
  };
  struct Semantic {
    int family;
    std::vector<size_t> spellings;  // first text of each spelling
  };
  struct Fresh {
    int semantic;
    const Spelling* spelling;
    const std::vector<std::string>* params;
  };

  void BuildPool() {
    const std::vector<Family>& families = Families();
    for (size_t f = 0; f < families.size(); ++f) {
      for (const auto& params : families[f].params) {
        const int semantic = static_cast<int>(semantics_.size());
        semantics_.push_back({static_cast<int>(f), {}});
        for (const Spelling& sp : families[f].spellings) {
          semantics_.back().spellings.push_back(texts_.size());
          const size_t variants = sp.renameable ? kVarNames.size() : 1;
          for (size_t v = 0; v < variants; ++v) {
            texts_.push_back(
                {{sp.language, Fill(sp.text, params, kVarNames[v])},
                 semantic});
          }
          if (sp.renameable) renameable_.push_back({semantic, &sp, &params});
        }
      }
    }
  }

  void DigestPool(Fnv* fnv) const override {
    for (const PoolText& t : texts_) {
      fnv->U64(static_cast<uint64_t>(t.query.language));
      fnv->Str(t.query.text);
    }
  }

  std::vector<PoolText> texts_;
  std::vector<Semantic> semantics_;
  std::vector<Fresh> renameable_;
  std::vector<std::vector<Answer>> refs_;
  std::vector<size_t> pair_order_;
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// churn_update

// Every churn slot has the same size, so write latency and the cost of a
// read that misses after a write are each one cluster rather than one per
// document size; a median between two clusters would not repeat.
constexpr int kChurnSlots = 6;
constexpr int kChurnNodes = 1650;  // 150 products
constexpr int kChurnVariants = 4;
// Every 50th operation is a write (2%). A fixed cadence rather than a
// coin per operation: the reads that miss after a write carry most of
// the workload's CPU time, and a random write count moved it by about 7%
// from one 5-second window to the next.
constexpr uint64_t kWriteEvery = 50;

class ChurnUpdate : public Workload {
 public:
  explicit ChurnUpdate(uint64_t seed) {
    seed_ = seed;
    server_ = std::make_unique<Server>(Server::Config{});
    std::vector<Tree> trees;
    Fnv fnv;
    variants_.resize(kChurnSlots);
    for (int s = 0; s < kChurnSlots; ++s) {
      names_.push_back("catalog" + std::to_string(s));
      for (int v = 0; v < kChurnVariants; ++v) {
        variants_[static_cast<size_t>(s)].push_back(
            Catalog(SlotSeed(seed, s, v), kChurnNodes));
        DigestTree(variants_[static_cast<size_t>(s)].back(), &fnv);
      }
      trees.push_back(variants_[static_cast<size_t>(s)][0]);
    }
    corpus_digest_ = fnv.h;
    AddCorpus(server_.get(), names_, std::move(trees));
    for (const std::string& name : names_) {
      versions_.Set(server_->store.Get(name).value()->epoch(), 0);
    }
    std::vector<PlanPtr> plans;
    for (const QueryClass& c : EvalMixClasses()) {
      plans.push_back(MustCompile(c.query));
    }
    for (size_t c = 0; c < plans.size(); ++c) {
      const std::vector<PlanPtr> spellings = Spellings(plans, c);
      std::vector<std::vector<Answer>> per_slot;
      for (size_t s = 0; s < names_.size(); ++s) {
        std::vector<Answer> per_variant;
        for (const Tree& tree : variants_[s]) {
          treeq::Document doc(tree);
          per_variant.push_back(ReferenceAnswer(spellings, doc));
        }
        per_slot.push_back(std::move(per_variant));
      }
      refs_.push_back(std::move(per_slot));
    }
  }

  Op MakeOp(uint64_t i) const override {
    const uint64_t r = Mix(seed_ ^ Mix(i));
    Op op;
    op.write = i % kWriteEvery == kWriteEvery - 1;
    if (op.write) {
      op.slot = static_cast<int>(r % names_.size());
      op.variant = static_cast<int>((r >> 24) % kChurnVariants);
    } else {
      const size_t pair = BlockShuffled(
          seed_, i, EvalMixClasses().size() * names_.size());
      op.query = static_cast<int>(pair / names_.size());
      op.slot = static_cast<int>(pair % names_.size());
    }
    return op;
  }

  OpOutcome Run(const Op& op, Tracer* tracer) override {
    OpOutcome out;
    const size_t s = static_cast<size_t>(op.slot);
    if (op.write) {
      Tree copy = variants_[s][static_cast<size_t>(op.variant)];
      DocumentPtr doc;
      const Timing t = TimedReplace(names_[s], std::move(copy), tracer, &doc);
      out.latency_ns = t.wall_ns;
      out.cpu_ns = t.cpu_ns;
      out.ok = doc != nullptr;
      if (out.ok) versions_.Set(doc->epoch(), op.variant);
      out.doc = std::move(doc);
      return out;
    }
    const size_t c = static_cast<size_t>(op.query);
    const QueryText& text = EvalMixClasses()[c].query;
    out.query_class = op.query;
    out.language = text.language;
    out.text = &text.text;
    const uint64_t start = NowNs();
    const uint64_t cpu_start = ThreadCpuNs();
    const uint64_t rc_hits = server_->result_cache.hits();
    {
      Tracer::Scope request(tracer, "request");
      {
        Tracer::Scope get(tracer, "engine.store.get");
        out.doc = server_->store.Get(names_[s]).value();
      }
      bool plan_cache_hit = false;
      treeq::Result<PlanPtr> plan = [&] {
        Tracer::Scope lookup(tracer, "engine.plan_cache");
        return server_->plan_cache.GetOrCompile(text.language, text.text,
                                                &plan_cache_hit);
      }();
      if (plan.ok()) {
        out.plan = plan.value();
        SubmitOptions options;
        options.plan_cache_hit = plan_cache_hit;
        treeq::Result<QueryResult> r = [&] {
          Tracer::Scope submit(tracer, "engine.executor");
          return server_->executor
              ->Submit(QueryRequest{out.plan, out.doc, options})
              .future.get();
        }();
        Tracer::Scope check(tracer, "bench.check");
        const int variant = versions_.Find(out.doc->epoch());
        out.ok = r.ok() &&
                 Digest(r.value()) == refs_[c][s][static_cast<size_t>(variant)];
      }
    }
    out.cpu_ns = ServingCpuNs(
        cpu_start, out.plan != nullptr &&
                       server_->result_cache.hits() == rc_hits);
    out.latency_ns = NowNs() - start;
    return out;
  }

  uint64_t warmup_ops() const override { return 2000; }
  int num_classes() const override {
    return static_cast<int>(EvalMixClasses().size());
  }
  const char* class_name(int c) const override {
    return EvalMixClasses()[static_cast<size_t>(c)].name;
  }

 private:
  void DigestPool(Fnv* fnv) const override {
    for (const QueryClass& c : EvalMixClasses()) fnv->Str(c.query.text);
  }

  std::vector<std::vector<Tree>> variants_;
  std::vector<std::vector<std::vector<Answer>>> refs_;
  VersionMap versions_;
};

}  // namespace

std::unique_ptr<Workload> SetUp(WorkloadKind kind, uint64_t seed) {
  switch (kind) {
    case WorkloadKind::kEvalMix:
      return std::make_unique<EvalMix>(seed);
    case WorkloadKind::kServeZipf:
      return std::make_unique<ServeZipf>(seed);
    case WorkloadKind::kChurnUpdate:
      return std::make_unique<ChurnUpdate>(seed);
  }
  return nullptr;
}

int VerifyZipfPool(uint64_t seed) {
  ServeZipf workload(seed);
  std::printf("serve_zipf pool: %zu texts, %zu semantic queries\n",
              workload.pool_size(), workload.semantic_count());
  return workload.VerifyPool();
}

}  // namespace perfbench
