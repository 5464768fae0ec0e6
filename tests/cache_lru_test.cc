// Direct tests of the LRU mechanics ResultCache and EvalCache share
// (cache/result_cache.h, cache/eval_cache.h): bounds and tallies under
// concurrent Insert / Lookup / InvalidateDocument on one shard, and the
// rule that an entry larger than its shard's byte budget is never
// resident. Everything is asserted through the caches' own atomic tallies,
// so the tests also run under TREEQ_OBS_DISABLED builds; the concurrency
// tests are part of the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "cache/eval_cache.h"
#include "cache/result_cache.h"
#include "engine/query.h"
#include "tree/axes.h"
#include "tree/node_set.h"
#include "util/random.h"

namespace treeq {
namespace {

using cache::EvalCache;
using cache::EvalCacheOptions;
using cache::ResultCache;
using cache::ResultCacheOptions;
using cache::ResultKey;

constexpr int kThreads = 4;
constexpr int kOpsPerThread = 3000;
constexpr int kEpochs = 3;
constexpr int kKeysPerEpoch = 16;

ResultKey Key(uint64_t doc_epoch, uint64_t lo) {
  ResultKey key;
  key.doc_epoch = doc_epoch;
  key.query_hash_lo = lo;
  return key;
}

// A random epoch in [1, kEpochs].
uint64_t RandomEpoch(Rng* rng) {
  return static_cast<uint64_t>(rng->Uniform(1, kEpochs));
}

// The next operation of one thread's mix: mostly lookups and inserts over
// a small key space (so hits, evictions and racing inserts of one key all
// happen), with an occasional whole-epoch invalidation.
enum class Op { kLookup, kInsert, kInvalidate };

Op NextOp(Rng* rng) {
  const int64_t roll = rng->Uniform(0, 99);
  if (roll < 2) return Op::kInvalidate;
  return roll < 55 ? Op::kLookup : Op::kInsert;
}

TEST(ResultCacheLruTest, ConcurrentMixStaysWithinBoundsAndTallies) {
  ResultCacheOptions options;
  options.num_shards = 1;
  options.max_entries = 4;
  options.max_bytes = 2048;
  ResultCache cache(options);

  std::atomic<uint64_t> lookups{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &lookups, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const ResultKey key = Key(
            RandomEpoch(&rng),
            static_cast<uint64_t>(rng.Uniform(0, kKeysPerEpoch - 1)));
        switch (NextOp(&rng)) {
          case Op::kLookup:
            (void)cache.Lookup(key);
            lookups.fetch_add(1, std::memory_order_relaxed);
            break;
          case Op::kInsert: {
            QueryResult result;
            // Sizes vary so the byte bound, not only the entry bound,
            // forces evictions.
            result.value =
                NodeSet(64 * static_cast<int>(rng.Uniform(1, 32)));
            cache.Insert(key, result);
            break;
          }
          case Op::kInvalidate:
            cache.InvalidateDocument(key.doc_epoch);
            break;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_LE(cache.size(), options.max_entries);
  EXPECT_LE(cache.bytes_used(), options.max_bytes);
  EXPECT_EQ(cache.hits() + cache.misses(), lookups.load());
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.evictions(), cache.inserts());

  for (uint64_t epoch = 1; epoch <= uint64_t{kEpochs}; ++epoch) {
    cache.InvalidateDocument(epoch);
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ResultCacheLruTest, OversizedEntryIsNeverResident) {
  ResultCacheOptions options;
  options.num_shards = 2;
  options.max_bytes = 2 * 4096;  // 4 KiB per shard
  ResultCache cache(options);

  QueryResult small;
  small.value = true;
  cache.Insert(Key(1, 1), small);
  ASSERT_EQ(cache.inserts(), 1u);

  // 64 Ki nodes = 8 KiB of bitmap words: above any one shard's budget.
  QueryResult huge;
  huge.value = NodeSet(64 * 1024);
  const ResultKey huge_key = Key(1, 2);
  cache.Insert(huge_key, huge);
  EXPECT_EQ(cache.inserts(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_FALSE(cache.Lookup(huge_key).has_value());
  EXPECT_TRUE(cache.Lookup(Key(1, 1)).has_value());
}

TEST(EvalCacheLruTest, ConcurrentMixStaysWithinBoundsAndTallies) {
  const int kUniverse = 256;
  EvalCacheOptions options;
  options.num_shards = 1;
  options.max_bytes = 1024;
  EvalCache cache(options);

  std::atomic<uint64_t> lookups{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &lookups, t] {
      Rng rng(200 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t epoch = RandomEpoch(&rng);
        NodeSet from(kUniverse);
        from.Insert(static_cast<NodeId>(rng.Uniform(0, kKeysPerEpoch - 1)));
        switch (NextOp(&rng)) {
          case Op::kLookup: {
            NodeSet to(kUniverse);
            (void)cache.Lookup(epoch, Axis::kChild, from, &to);
            lookups.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          case Op::kInsert:
            cache.Insert(epoch, Axis::kChild, from, NodeSet::All(kUniverse));
            break;
          case Op::kInvalidate:
            cache.InvalidateDocument(epoch);
            break;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_LE(cache.bytes_used(), options.max_bytes);
  EXPECT_EQ(cache.hits() + cache.misses(), lookups.load());
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.evictions(), cache.inserts());

  for (uint64_t epoch = 1; epoch <= uint64_t{kEpochs}; ++epoch) {
    cache.InvalidateDocument(epoch);
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

}  // namespace
}  // namespace treeq
