// Differential tests for the cross-query reuse layer: every cached answer
// must be bit-identical to the uncached evaluation it replays.
//
//   - Axis grid: AxisImageMemoized through an EvalCache, cold (miss +
//     store) and warm (fingerprint hit), against the plain AxisImage
//     kernel — all 17 axes, word-boundary universe sizes, the
//     axes_kernel_test input grid. A fingerprint collision or a stale
//     entry shows up here as a wrong bit.
//   - 100-seed corpus: random documents and random tree-shaped k-ary CQs
//     (the par_differential recipe) evaluated via Plan::Execute with an
//     axis memo, cold and warm, against the memo-free execution; same for
//     a pool of XPath queries through EvalQueryFromRoot's memo argument.
//   - Engine level: the same corpus served twice through an Executor with
//     eval + result caches and singleflight on — the second pass is all
//     cache hits — against Plan::Execute.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/eval_cache.h"
#include "cache/result_cache.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "tree/axes.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "tree/node_set.h"
#include "tree/orders.h"
#include "util/exec_context.h"
#include "util/random.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace treeq {
namespace {

using cache::EvalCache;
using cache::ResultCache;
using engine::Executor;
using engine::Plan;
using engine::PlanPtr;

const Axis kAllAxes[] = {
    Axis::kSelf,
    Axis::kChild,
    Axis::kParent,
    Axis::kDescendant,
    Axis::kAncestor,
    Axis::kDescendantOrSelf,
    Axis::kAncestorOrSelf,
    Axis::kNextSibling,
    Axis::kPrevSibling,
    Axis::kFollowingSibling,
    Axis::kPrecedingSibling,
    Axis::kFollowingSiblingOrSelf,
    Axis::kPrecedingSiblingOrSelf,
    Axis::kFollowing,
    Axis::kPreceding,
    Axis::kFirstChild,
    Axis::kFirstChildInv,
};

// Word-boundary universe sizes: the fingerprint walks the backing words,
// so tail-masked last words are where a sloppy hash would collide.
const int kUniverseSizes[] = {1, 5, 63, 64, 65, 127, 128, 130, 192};

std::set<NodeId> RandomSubset(Rng* rng, int n, double density) {
  std::set<NodeId> s;
  for (NodeId v = 0; v < n; ++v) {
    if (rng->Bernoulli(density)) s.insert(v);
  }
  return s;
}

// The axes_kernel_test input grid; plain AxisImage is the oracle. Each
// input runs twice through the same memo: the first pass misses and
// stores, the second must hit and replay identical bits.
void CheckAllAxesMemoized(const Tree& t, Rng* rng, uint64_t epoch,
                          EvalCache* cache, const char* shape) {
  const int n = t.num_nodes();
  const TreeOrders o = ComputeOrders(t);
  std::vector<std::set<NodeId>> inputs;
  inputs.push_back({});
  inputs.push_back({t.root()});
  inputs.push_back({static_cast<NodeId>(n - 1)});
  std::set<NodeId> all;
  for (NodeId v = 0; v < n; ++v) all.insert(v);
  inputs.push_back(all);
  for (double density : {0.05, 0.3, 0.8}) {
    inputs.push_back(RandomSubset(rng, n, density));
  }

  EvalCache::Memo memo(cache, epoch);
  for (Axis axis : kAllAxes) {
    for (const std::set<NodeId>& from_ref : inputs) {
      NodeSet from(n);
      for (NodeId v : from_ref) from.Insert(v);
      NodeSet want(n);
      AxisImage(t, o, axis, from, &want);

      NodeSet cold(n);
      bool cold_hit =
          AxisImageMemoized(t, o, axis, from, &cold, &memo);
      EXPECT_TRUE(cold == want)
          << shape << " n=" << n << " axis=" << AxisName(axis)
          << " |from|=" << from_ref.size() << " cold_hit=" << cold_hit;

      NodeSet warm(n);
      EXPECT_TRUE(AxisImageMemoized(t, o, axis, from, &warm, &memo))
          << shape << " n=" << n << " axis=" << AxisName(axis);
      EXPECT_TRUE(warm == want)
          << shape << " n=" << n << " axis=" << AxisName(axis)
          << " |from|=" << from_ref.size() << " (warm)";
    }
  }
}

TEST(CacheAxisDifferentialTest, RandomTrees) {
  Rng rng(1234);
  EvalCache cache;  // shared across shapes: epochs keep them apart
  uint64_t epoch = 1;
  for (int n : kUniverseSizes) {
    RandomTreeOptions opts;
    opts.num_nodes = n;
    opts.attach_window = 4;
    opts.alphabet = {"a", "b"};
    Tree t = RandomTree(&rng, opts);
    CheckAllAxesMemoized(t, &rng, epoch++, &cache, "random");
  }
  EXPECT_GT(cache.hits(), 0u);
}

TEST(CacheAxisDifferentialTest, DeepPaths) {
  Rng rng(99);
  EvalCache cache;
  uint64_t epoch = 100;
  for (int n : kUniverseSizes) {
    Tree t = Chain(n, "a", "b");
    CheckAllAxesMemoized(t, &rng, epoch++, &cache, "chain");
  }
}

TEST(CacheAxisDifferentialTest, WideFlat) {
  Rng rng(7);
  EvalCache cache;
  uint64_t epoch = 200;
  for (int n : kUniverseSizes) {
    if (n < 2) continue;
    Tree t = Star(n);
    CheckAllAxesMemoized(t, &rng, epoch++, &cache, "star");
  }
}

// Same-universe same-popcount sets must not collide: for every pair of
// singletons of a chain, a warm lookup of one must never serve the other.
TEST(CacheAxisDifferentialTest, SingletonsStayDistinct) {
  const int n = 130;
  Tree t = Chain(n, "a", "b");
  TreeOrders o = ComputeOrders(t);
  EvalCache cache;
  EvalCache::Memo memo(&cache, 1);
  for (NodeId v = 0; v < n; ++v) {
    NodeSet from(n);
    from.Insert(v);
    NodeSet out(n);
    AxisImageMemoized(t, o, Axis::kDescendant, from, &out, &memo);
  }
  for (NodeId v = 0; v < n; ++v) {
    NodeSet from(n);
    from.Insert(v);
    NodeSet want(n);
    AxisImage(t, o, Axis::kDescendant, from, &want);
    NodeSet got(n);
    ASSERT_TRUE(
        AxisImageMemoized(t, o, Axis::kDescendant, from, &got, &memo))
        << "v=" << v;
    EXPECT_TRUE(got == want) << "v=" << v;
  }
}

// ---------------------------------------------------------------------------
// 100-seed corpus: random documents, random tree-shaped k-ary CQs (the
// par_differential recipe), and an XPath query pool — Plan::Execute with
// an axis memo (cold, then warm) against the memo-free execution.

const std::vector<std::string> kAlphabet = {"a", "b", "c"};

std::string RandomLabel(Rng* rng) {
  return kAlphabet[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(kAlphabet.size()) - 1))];
}

Tree RandomDocumentTree(Rng* rng, int max_nodes) {
  static const int kSizes[] = {3, 7, 31, 63, 64, 65, 96, 127, 128, 129};
  std::vector<int> sizes;
  for (int s : kSizes) {
    if (s <= max_nodes) sizes.push_back(s);
  }
  int n = sizes[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(sizes.size()) - 1))];
  switch (rng->Uniform(0, 3)) {
    case 0:
      return Chain(n, "a", "b");
    case 1:
      return Star(n, "a", rng->Bernoulli(0.5) ? "a" : "b");
    default: {
      RandomTreeOptions opt;
      opt.num_nodes = n;
      opt.attach_window = static_cast<int>(rng->Uniform(1, 8));
      opt.alphabet = kAlphabet;
      opt.second_label_prob = 0.2;
      return RandomTree(rng, opt);
    }
  }
}

// A random tree-shaped k-ary CQ as query text: node 0 is the root
// variable, every later node attaches to a random earlier one by Child or
// Child+, every variable carries a label atom and appears in the head.
std::string RandomTreeCqText(Rng* rng, int max_vars) {
  const int n = static_cast<int>(rng->Uniform(1, max_vars));
  std::string head = "Q(";
  std::string body;
  for (int i = 0; i < n; ++i) {
    if (i > 0) head += ", ";
    head += "v" + std::to_string(i);
    if (i > 0) {
      int parent = static_cast<int>(rng->Uniform(0, i - 1));
      body += rng->Bernoulli(0.5) ? "Child(" : "Child+(";
      body += "v" + std::to_string(parent) + ", v" + std::to_string(i) +
              "), ";
    }
    body += "Lab_" + RandomLabel(rng) + "(v" + std::to_string(i) + "), ";
  }
  body.resize(body.size() - 2);  // trailing ", "
  return head + ") :- " + body + ".";
}

TupleSet Sorted(TupleSet tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

TEST(CacheCorpusDifferentialTest, HundredSeedCqCorpus) {
  const int kTrials = 100;
  EvalCache cache;  // one cache across the corpus; epochs separate docs
  for (uint64_t seed = 0; seed < kTrials; ++seed) {
    Rng rng(1000 + seed);
    DocumentPtr doc =
        MakeDocument(RandomDocumentTree(&rng, /*max_nodes=*/129));
    std::string text = RandomTreeCqText(&rng, /*max_vars=*/4);
    auto plan = Plan::Compile(Language::kCq, text);
    ASSERT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();

    Result<QueryResult> want =
        (*plan)->Execute(*doc, ExecContext::Unbounded(), {});
    ASSERT_TRUE(want.ok()) << text;

    EvalCache::Memo memo(&cache, doc->epoch());
    engine::ExecuteOptions options;
    options.axis_memo = &memo;
    for (const char* pass : {"cold", "warm"}) {
      Result<QueryResult> got =
          (*plan)->Execute(*doc, ExecContext::Unbounded(), options);
      ASSERT_TRUE(got.ok()) << text << " " << pass;
      ASSERT_EQ(got->is_tuples(), want->is_tuples()) << text;
      if (want->is_tuples()) {
        EXPECT_EQ(Sorted(got->tuples()), Sorted(want->tuples()))
            << "seed " << 1000 + seed << " " << pass << " on " << text;
      } else {
        EXPECT_EQ(got->value, want->value)
            << "seed " << 1000 + seed << " " << pass << " on " << text;
      }
    }
  }
  EXPECT_GT(cache.hits(), 0u);
}

const char* const kXPathPool[] = {
    "//a",
    "//a//b",
    "/descendant-or-self::*[a]/b",
    "//b[following-sibling::a]/ancestor::a",
    "//a[not(b)]/following::b",
    "//c/parent::a",
};

TEST(CacheCorpusDifferentialTest, XPathMemoOverloadBitIdentical) {
  EvalCache cache;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(3000 + seed);
    Document doc(RandomDocumentTree(&rng, /*max_nodes=*/129));
    const char* text = kXPathPool[seed % std::size(kXPathPool)];
    auto parsed = xpath::ParseXPath(text);
    ASSERT_TRUE(parsed.ok()) << text;

    Result<NodeSet> want = xpath::EvalQueryFromRoot(
        doc, *parsed.value(), ExecContext::Unbounded());
    ASSERT_TRUE(want.ok()) << text;

    EvalCache::Memo memo(&cache, doc.epoch());
    for (const char* pass : {"cold", "warm"}) {
      Result<NodeSet> got = xpath::EvalQueryFromRoot(
          doc, *parsed.value(), ExecContext::Unbounded(), &memo);
      ASSERT_TRUE(got.ok()) << text << " " << pass;
      EXPECT_TRUE(got.value() == want.value())
          << "seed " << 3000 + seed << " " << pass << " on " << text;
    }
  }
  EXPECT_GT(cache.hits(), 0u);
}

// ---------------------------------------------------------------------------
// Engine level: the corpus served twice through a fully cached executor —
// the second pass is result-cache hits — against Plan::Execute.

TEST(CacheEngineDifferentialTest, CachedSubmitsMatchDirectRuns) {
  EvalCache eval_cache;
  ResultCache result_cache;
  Executor exec(Executor::Options{.num_workers = 2,
                                  .queue_capacity = 32,
                                  .eval_cache = &eval_cache,
                                  .result_cache = &result_cache,
                                  .singleflight = true});

  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(5000 + seed);
    DocumentPtr doc =
        MakeDocument(RandomDocumentTree(&rng, /*max_nodes=*/129));
    std::string cq_text = RandomTreeCqText(&rng, /*max_vars=*/4);
    const char* xpath_text = kXPathPool[seed % std::size(kXPathPool)];

    std::vector<std::pair<Language, std::string>> cases = {
        {Language::kCq, cq_text}, {Language::kXPath, xpath_text}};
    for (const auto& [language, text] : cases) {
      auto plan = Plan::Compile(language, text);
      ASSERT_TRUE(plan.ok()) << text;
      Result<QueryResult> want = (*plan)->Execute(*doc);
      ASSERT_TRUE(want.ok()) << text;
      // The cold pass misses (the document's epoch is new) and inserts its
      // answer unless the answer alone exceeds the cache's byte budget.
      // When the insert was accepted, the warm pass must be a hit.
      const uint64_t inserts = result_cache.inserts();
      bool cached = false;
      for (const char* pass : {"cold", "warm"}) {
        const uint64_t hits = result_cache.hits();
        Result<QueryResult> got =
            exec.Submit({*plan, doc, {}}).future.get();
        ASSERT_TRUE(got.ok()) << text << " " << pass;
        EXPECT_EQ(got->value, want->value)
            << "seed " << 5000 + seed << " " << pass << " on " << text;
        if (cached) {
          EXPECT_EQ(result_cache.hits(), hits + 1)
              << "seed " << 5000 + seed << ": warm pass missed on " << text;
        }
        cached = result_cache.inserts() > inserts;
      }
    }
  }
  EXPECT_GT(result_cache.hits(), 0u);
  EXPECT_GT(eval_cache.hits(), 0u);
}

}  // namespace
}  // namespace treeq
