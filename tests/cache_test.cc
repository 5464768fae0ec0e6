// Tests for the cross-query reuse layer (cache/eval_cache.h,
// cache/result_cache.h) and its engine wiring: versioned axis-image
// memoization, whole-query result caching, in-flight deduplication
// (singleflight), and DocumentStore epoch invalidation. Execution counts
// are asserted through the cache objects' own atomic tallies and
// per-request ExecContext spend, so every test also runs under
// TREEQ_OBS_DISABLED builds; the concurrency tests are part of the TSan
// CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/eval_cache.h"
#include "cache/result_cache.h"
#include "engine/engine.h"
#include "tree/axes.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "tree/node_set.h"
#include "tree/orders.h"
#include "util/random.h"

namespace treeq {
namespace {

using cache::EvalCache;
using cache::EvalCacheOptions;
using cache::InflightTable;
using cache::ResultCache;
using cache::ResultCacheOptions;
using cache::ResultKey;
using engine::DocumentStore;
using engine::Executor;
using engine::Plan;
using engine::PlanPtr;
using engine::SubmitOptions;

DocumentPtr Catalog(int seed = 1, int products = 40) {
  Rng rng(static_cast<uint64_t>(seed));
  CatalogOptions opts;
  opts.num_products = products;
  return MakeDocument(CatalogDocument(&rng, opts));
}

NodeSet FromIds(int universe, std::initializer_list<NodeId> ids) {
  NodeSet s(universe);
  for (NodeId v : ids) s.Insert(v);
  return s;
}

// Result keys are (doc epoch, canonical plan hash). For tests that key by
// a real query, derive the hash from its compiled plan; tests exercising
// pure cache mechanics use synthetic hashes via SyntheticKey.
ResultKey KeyFor(const PlanPtr& plan, uint64_t doc_epoch) {
  ResultKey key;
  key.doc_epoch = doc_epoch;
  key.query_hash_hi = plan->canonical_hash().hi;
  key.query_hash_lo = plan->canonical_hash().lo;
  return key;
}

ResultKey SyntheticKey(uint64_t doc_epoch, uint64_t lo) {
  ResultKey key;
  key.doc_epoch = doc_epoch;
  key.query_hash_lo = lo;
  return key;
}

// A query slow enough (naive FO, quadratic in document size) to keep a
// one-worker pool busy for milliseconds while the test thread enqueues
// follow-up submissions — the deterministic window the singleflight tests
// rely on (enqueueing is a sub-microsecond queue push).
PlanPtr BlockerPlan() {
  return Plan::Compile(Language::kFo,
                       "forall x . forall y . "
                       "(not Child(x, y) or not Lab_zzz(x))")
      .value();
}

// ---------------------------------------------------------------------------
// EvalCache

TEST(EvalCacheTest, RoundTripIsBitIdenticalAndEpochIsolated) {
  Tree t = Chain(40, "a", "b");
  TreeOrders o = ComputeOrders(t);
  NodeSet from = FromIds(t.num_nodes(), {0, 3, 17});
  NodeSet want(t.num_nodes());
  AxisImage(t, o, Axis::kDescendant, from, &want);

  EvalCache cache;
  NodeSet got(t.num_nodes());
  EXPECT_FALSE(cache.Lookup(7, Axis::kDescendant, from, &got));
  cache.Insert(7, Axis::kDescendant, from, want);
  ASSERT_TRUE(cache.Lookup(7, Axis::kDescendant, from, &got));
  EXPECT_TRUE(got == want);

  // Same input set, other epoch or other axis: distinct keys.
  EXPECT_FALSE(cache.Lookup(8, Axis::kDescendant, from, &got));
  EXPECT_FALSE(cache.Lookup(7, Axis::kAncestor, from, &got));

  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.inserts(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GT(cache.bytes_used(), 0u);
}

TEST(EvalCacheTest, ByteBudgetForcesEviction) {
  const int kUniverse = 512;
  Tree t = Chain(kUniverse, "a", "b");
  EvalCacheOptions options;
  options.num_shards = 1;
  // Room for only a couple of 512-bit results plus overhead.
  options.max_bytes = 400;
  options.max_entry_bytes = 400;
  EvalCache cache(options);

  for (NodeId v = 0; v < 32; ++v) {
    NodeSet from = FromIds(kUniverse, {v});
    NodeSet to = FromIds(kUniverse, {v, static_cast<NodeId>(v + 1)});
    cache.Insert(3, Axis::kChild, from, to);
    EXPECT_LE(cache.bytes_used(), options.max_bytes);
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LT(cache.size(), 32u);

  // The survivors still serve exact results.
  NodeSet from = FromIds(kUniverse, {31});
  NodeSet got(kUniverse);
  ASSERT_TRUE(cache.Lookup(3, Axis::kChild, from, &got));
  EXPECT_TRUE(got == FromIds(kUniverse, {31, 32}));
}

TEST(EvalCacheTest, OversizedResultsAreNeverCached) {
  EvalCacheOptions options;
  options.max_entry_bytes = 8;  // smaller than any entry's overhead
  EvalCache cache(options);
  NodeSet from = FromIds(64, {1});
  NodeSet to = FromIds(64, {2});
  cache.Insert(1, Axis::kChild, from, to);
  EXPECT_EQ(cache.inserts(), 0u);
  EXPECT_EQ(cache.size(), 0u);
  NodeSet got(64);
  EXPECT_FALSE(cache.Lookup(1, Axis::kChild, from, &got));
}

TEST(EvalCacheTest, InvalidateDocumentDropsOnlyThatEpoch) {
  EvalCache cache;
  NodeSet from = FromIds(64, {0, 5});
  NodeSet to = FromIds(64, {6});
  cache.Insert(10, Axis::kChild, from, to);
  cache.Insert(11, Axis::kChild, from, to);
  ASSERT_EQ(cache.size(), 2u);

  cache.InvalidateDocument(10);
  EXPECT_EQ(cache.size(), 1u);
  NodeSet got(64);
  EXPECT_FALSE(cache.Lookup(10, Axis::kChild, from, &got));
  EXPECT_TRUE(cache.Lookup(11, Axis::kChild, from, &got));

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(EvalCacheTest, MemoAdapterServesAxisImageMemoized) {
  Tree t = Chain(100, "a", "b");
  TreeOrders o = ComputeOrders(t);
  NodeSet from = FromIds(t.num_nodes(), {2, 50, 99});
  NodeSet want(t.num_nodes());
  AxisImage(t, o, Axis::kAncestor, from, &want);

  EvalCache cache;
  EvalCache::Memo memo(&cache, /*epoch=*/42);
  NodeSet cold(t.num_nodes());
  EXPECT_FALSE(
      AxisImageMemoized(t, o, Axis::kAncestor, from, &cold, &memo));
  EXPECT_TRUE(cold == want);
  NodeSet warm(t.num_nodes());
  EXPECT_TRUE(AxisImageMemoized(t, o, Axis::kAncestor, from, &warm, &memo));
  EXPECT_TRUE(warm == want);
  // Null memo degenerates to the plain kernel.
  NodeSet plain(t.num_nodes());
  EXPECT_FALSE(
      AxisImageMemoized(t, o, Axis::kAncestor, from, &plain, nullptr));
  EXPECT_TRUE(plain == want);
}

// ---------------------------------------------------------------------------
// ResultCache

TEST(ResultCacheTest, RoundTripsAllThreeValueShapes) {
  DocumentPtr doc = Catalog();
  struct Case {
    Language language;
    const char* text;
  } cases[] = {
      {Language::kXPath, "//review/rating5"},                         // nodes
      {Language::kCq,
       "Q(p, r) :- Child+(p, r), Lab_product(p), Lab_review(r)."},    // tuples
      {Language::kFo, "exists x . Lab_price(x)"},                     // bool
  };

  ResultCache cache;
  for (const Case& c : cases) {
    PlanPtr plan = Plan::Compile(c.language, c.text).value();
    QueryResult want = plan->Execute(*doc).value();

    ResultKey key = KeyFor(plan, doc->epoch());
    EXPECT_FALSE(cache.Lookup(key).has_value());
    cache.Insert(key, want);
    std::optional<QueryResult> got = cache.Lookup(key);
    ASSERT_TRUE(got.has_value()) << c.text;
    EXPECT_EQ(got->value, want.value) << c.text;
    EXPECT_STREQ(got->engine, want.engine);
    EXPECT_EQ(got->language, want.language);
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 3u);
}

// The key is the canonical plan hash, so language, whitespace and
// variable naming matter exactly when they change the canonical plan. Different hashes are distinct entries; semantically
// identical queries in different languages share one.
TEST(ResultCacheTest, CanonicalHashIsTheKey) {
  ResultCache cache;
  QueryResult result;
  result.value = true;

  ResultKey a = SyntheticKey(1, 0x1111);
  cache.Insert(a, result);

  ResultKey other_hash = a;
  other_hash.query_hash_lo = 0x2222;
  EXPECT_FALSE(cache.Lookup(other_hash).has_value());
  ResultKey other_hi = a;
  other_hi.query_hash_hi = 7;
  EXPECT_FALSE(cache.Lookup(other_hi).has_value());
  ResultKey other_epoch = a;
  other_epoch.doc_epoch = 2;
  EXPECT_FALSE(cache.Lookup(other_epoch).has_value());
  EXPECT_TRUE(cache.Lookup(a).has_value());

  // The same query phrased in XPath and as a conjunctive query compiles
  // to the same canonical hash, hence the same cache key. (The CQ needs
  // the extra ancestor variable `w` to mirror XPath's root anchoring:
  // `//product` can never match the root, so the faithful CQ asserts the
  // product node has *some* ancestor.)
  PlanPtr xpath =
      Plan::Compile(Language::kXPath, "//product//rating5").value();
  PlanPtr cq =
      Plan::Compile(Language::kCq,
                    "Q(y) :- Child+(w, x), Child+(x, y), Lab_product(x), "
                    "Lab_rating5(y).")
          .value();
  EXPECT_EQ(KeyFor(xpath, 3), KeyFor(cq, 3));
  cache.Insert(KeyFor(xpath, 3), result);
  EXPECT_TRUE(cache.Lookup(KeyFor(cq, 3)).has_value());
}

TEST(ResultCacheTest, EntryCountAndByteBudgetsBound) {
  ResultCacheOptions options;
  options.num_shards = 1;
  options.max_entries = 4;
  ResultCache cache(options);
  QueryResult result;
  result.value = NodeSet(64);
  for (int i = 0; i < 32; ++i) {
    cache.Insert(SyntheticKey(1, static_cast<uint64_t>(i)), result);
  }
  EXPECT_LE(cache.size(), 4u);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(ResultCacheTest, InvalidateDocumentDropsEpoch) {
  ResultCache cache;
  QueryResult result;
  result.value = false;
  ResultKey old_key = SyntheticKey(5, 0xA);
  ResultKey new_key = old_key;
  new_key.doc_epoch = 6;
  cache.Insert(old_key, result);
  cache.Insert(new_key, result);
  cache.InvalidateDocument(5);
  EXPECT_FALSE(cache.Lookup(old_key).has_value());
  EXPECT_TRUE(cache.Lookup(new_key).has_value());
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// InflightTable

TEST(InflightTableTest, LeaderRegistersFollowersShareOutcome) {
  InflightTable table;
  ResultKey key = SyntheticKey(1, 0xA);

  EXPECT_FALSE(table.Join(key).has_value());  // leader
  auto f1 = table.Join(key);
  auto f2 = table.Join(key);
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.leaders(), 1u);
  EXPECT_EQ(table.followers(), 2u);

  QueryResult outcome;
  outcome.value = true;
  table.Complete(key, outcome);
  EXPECT_EQ(table.size(), 0u);
  Result<QueryResult> r1 = f1->get();
  Result<QueryResult> r2 = f2->get();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->value, outcome.value);
  EXPECT_EQ(r2->value, outcome.value);

  // The key is free again after completion.
  EXPECT_FALSE(table.Join(key).has_value());
  table.Complete(key, Status::Unavailable("rejected"));
}

TEST(InflightTableTest, ErrorsFanOutToFollowers) {
  InflightTable table;
  ResultKey key = SyntheticKey(2, 0xB);
  EXPECT_FALSE(table.Join(key).has_value());
  auto follower = table.Join(key);
  ASSERT_TRUE(follower.has_value());
  table.Complete(key, Status::Unavailable("executor queue is full"));
  Result<QueryResult> r = follower->get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// Executor wiring

TEST(ExecutorCacheTest, ResultCacheHitSkipsExecution) {
  DocumentPtr doc = Catalog();
  PlanPtr plan = Plan::Compile(Language::kXPath, "//review/rating5").value();
  ResultCache result_cache;
  Executor exec(Executor::Options{.num_workers = 1,
                                  .result_cache = &result_cache});

  engine::Submission cold = exec.Submit({plan, doc, {}});
  Result<QueryResult> first = cold.future.get();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(result_cache.inserts(), 1u);
  EXPECT_EQ(result_cache.hits(), 0u);

  engine::Submission warm = exec.Submit({plan, doc, {}});
  Result<QueryResult> second = warm.future.get();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->value, first->value);
  // Served from cache: the lookup registered a hit and nothing re-executed
  // (an execution would have inserted a second time).
  EXPECT_EQ(result_cache.hits(), 1u);
  EXPECT_EQ(result_cache.inserts(), 1u);
}

TEST(ExecutorCacheTest, EvalCacheReusesAxisImagesAcrossRequests) {
  DocumentPtr doc = Catalog();
  PlanPtr plan =
      Plan::Compile(Language::kXPath, "/catalog/product/name").value();
  EvalCache eval_cache;
  Executor exec(Executor::Options{.num_workers = 1,
                                  .eval_cache = &eval_cache});

  Result<QueryResult> want = plan->Execute(*doc);
  ASSERT_TRUE(want.ok());

  Result<QueryResult> cold = exec.Submit({plan, doc, {}}).future.get();
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->value, want->value);
  EXPECT_GT(eval_cache.inserts(), 0u);
  EXPECT_EQ(eval_cache.hits(), 0u);

  Result<QueryResult> hot = exec.Submit({plan, doc, {}}).future.get();
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot->value, want->value);
  EXPECT_GT(eval_cache.hits(), 0u);
}

TEST(ExecutorCacheTest, SingleflightCollapsesConcurrentIdenticalSubmits) {
  DocumentPtr doc = Catalog();
  PlanPtr plan = Plan::Compile(Language::kXPath, "//review/rating5").value();
  // The result cache doubles as the execution tally: every executed
  // eligible request inserts exactly once, so inserts() counts executions.
  ResultCache result_cache;
  Executor exec(Executor::Options{.num_workers = 1,
                                  .queue_capacity = 32,
                                  .result_cache = &result_cache,
                                  .singleflight = true});

  // Occupy the single worker so every identical submission below lands
  // while the first (the leader) is still queued — the flight table holds
  // the key for that whole window. bypass_cache keeps the blocker out of
  // the tally.
  SubmitOptions bypass;
  bypass.bypass_cache = true;
  engine::Submission blocker = exec.Submit({BlockerPlan(), doc, bypass});

  // The duplicates run on a larger catalog, where the plan scores above
  // plan::kInlineCost: the leader queues instead of running inline.
  DocumentPtr big = Catalog(1, 400);
  ASSERT_FALSE(plan->Route(*big, ExecContext::Unbounded(), false).run_inline);
  constexpr int kDuplicates = 6;
  std::vector<engine::Submission> dups;
  for (int i = 0; i < kDuplicates; ++i) {
    dups.push_back(exec.Submit({plan, big, {}}));
  }
  ASSERT_TRUE(blocker.future.get().ok());

  Result<QueryResult> want = plan->Execute(*big);
  ASSERT_TRUE(want.ok());
  for (engine::Submission& s : dups) {
    Result<QueryResult> r = s.future.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->value, want->value);
  }
  // Only the leader evaluated: one insert, and no duplicate was served a
  // cache hit (they all joined the flight before the leader ran).
  EXPECT_EQ(result_cache.inserts(), 1u);
  EXPECT_EQ(result_cache.hits(), 0u);
}

TEST(ExecutorCacheTest, BoundedAndBypassRequestsNeverReuse) {
  DocumentPtr doc = Catalog();
  PlanPtr plan = Plan::Compile(Language::kXPath, "//review/rating5").value();
  EvalCache eval_cache;
  ResultCache result_cache;
  Executor exec(Executor::Options{.num_workers = 1,
                                  .eval_cache = &eval_cache,
                                  .result_cache = &result_cache,
                                  .singleflight = true});

  ASSERT_TRUE(exec.Submit({plan, doc, {}}).future.get().ok());
  ASSERT_EQ(result_cache.size(), 1u);

  // A budgeted request with the same text must run under its own budget —
  // and trip it — instead of being served the cached success.
  SubmitOptions starved;
  starved.visit_budget = 1;
  Result<QueryResult> r = exec.Submit({plan, doc, starved}).future.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);

  // bypass_cache re-executes and leaves the caches untouched: a correct
  // answer with no new hit or insert on either cache means the request
  // evaluated from scratch.
  const uint64_t result_hits_before = result_cache.hits();
  const uint64_t result_inserts_before = result_cache.inserts();
  const uint64_t eval_hits_before = eval_cache.hits();
  const uint64_t eval_inserts_before = eval_cache.inserts();
  SubmitOptions bypass;
  bypass.bypass_cache = true;
  engine::Submission fresh = exec.Submit({plan, doc, bypass});
  Result<QueryResult> fresh_result = fresh.future.get();
  ASSERT_TRUE(fresh_result.ok());
  EXPECT_EQ(fresh_result->value, plan->Execute(*doc)->value);
  EXPECT_EQ(result_cache.hits(), result_hits_before);
  EXPECT_EQ(result_cache.inserts(), result_inserts_before);
  EXPECT_EQ(eval_cache.hits(), eval_hits_before);
  EXPECT_EQ(eval_cache.inserts(), eval_inserts_before);
}

TEST(ExecutorCacheTest, ReplaceInvalidatesThroughStoreListeners) {
  DocumentStore store;
  EvalCache eval_cache;
  ResultCache result_cache;
  store.AddEvictionListener(
      [&](uint64_t epoch) { eval_cache.InvalidateDocument(epoch); });
  store.AddEvictionListener(
      [&](uint64_t epoch) { result_cache.InvalidateDocument(epoch); });

  ASSERT_TRUE(store.Add("doc", Chain(60, "a", "b")).ok());
  Executor exec(Executor::Options{.num_workers = 1,
                                  .eval_cache = &eval_cache,
                                  .result_cache = &result_cache});
  PlanPtr plan = Plan::Compile(Language::kXPath, "//a").value();

  DocumentPtr v1 = store.Get("doc").value();
  Result<QueryResult> old_result = exec.Submit({plan, v1, {}}).future.get();
  ASSERT_TRUE(old_result.ok());
  ASSERT_GT(result_cache.size(), 0u);
  ASSERT_GT(eval_cache.size(), 0u);

  // Replace swaps in a new epoch; the listeners reclaim the old entries.
  ASSERT_TRUE(store.Replace("doc", Star(60, "a", "a")).ok());
  EXPECT_EQ(result_cache.size(), 0u);
  EXPECT_EQ(eval_cache.size(), 0u);

  DocumentPtr v2 = store.Get("doc").value();
  EXPECT_NE(v1->epoch(), v2->epoch());
  Result<QueryResult> new_result = exec.Submit({plan, v2, {}}).future.get();
  ASSERT_TRUE(new_result.ok());
  // The fresh document's answer, never the stale one.
  EXPECT_EQ(new_result->value, plan->Execute(*v2)->value);
  EXPECT_NE(new_result->nodes(), old_result->nodes());

  // Remove also notifies.
  const size_t resident = result_cache.size();
  ASSERT_GT(resident, 0u);
  ASSERT_TRUE(store.Remove("doc").ok());
  EXPECT_EQ(result_cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrency (run under TSan in CI)

TEST(CacheConcurrencyTest, ConcurrentIdenticalSubmitsAllAgree) {
  DocumentPtr doc = Catalog(3, 30);
  PlanPtr plan = Plan::Compile(Language::kXPath, "//review/rating5").value();
  Result<QueryResult> want = plan->Execute(*doc);
  ASSERT_TRUE(want.ok());

  EvalCache eval_cache;
  ResultCache result_cache;
  Executor exec(Executor::Options{.num_workers = 4,
                                  .queue_capacity = 64,
                                  .eval_cache = &eval_cache,
                                  .result_cache = &result_cache,
                                  .singleflight = true});

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        Result<QueryResult> r = exec.Submit({plan, doc, {}}).future.get();
        if (!r.ok() || r->value != want->value) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Every submission was a cache hit, a collapse, or the one execution
  // per cold key; the tallies must account for all of them.
  EXPECT_GE(result_cache.hits() + result_cache.inserts(), 1u);
}

TEST(CacheConcurrencyTest, SubmitsRaceDocumentReplacement) {
  DocumentStore store;
  EvalCache eval_cache;
  ResultCache result_cache;
  store.AddEvictionListener(
      [&](uint64_t epoch) { eval_cache.InvalidateDocument(epoch); });
  store.AddEvictionListener(
      [&](uint64_t epoch) { result_cache.InvalidateDocument(epoch); });
  Rng seed_rng(7);
  ASSERT_TRUE(
      store.Add("doc", CatalogDocument(&seed_rng, CatalogOptions{})).ok());

  PlanPtr plan = Plan::Compile(Language::kXPath, "//review/rating5").value();
  Executor exec(Executor::Options{.num_workers = 4,
                                  .queue_capacity = 64,
                                  .eval_cache = &eval_cache,
                                  .result_cache = &result_cache,
                                  .singleflight = true});

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        DocumentPtr doc = store.Get("doc").value();
        Result<QueryResult> r = exec.Submit({plan, doc, {}}).future.get();
        // Whatever version this thread pinned, the answer must be that
        // version's answer — a stale cross-epoch hit would differ.
        if (!r.ok() || r->value != plan->Execute(*doc)->value) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    Rng rng(static_cast<uint64_t>(100 + i));
    CatalogOptions opts;
    opts.num_products = 20 + i;  // every version answers differently
    ASSERT_TRUE(store.Replace("doc", CatalogDocument(&rng, opts)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace treeq
