// Document churn under load: bursts of Submit calls racing DocumentStore
// Replace/Remove+Add while the result cache, the eval cache, and
// singleflight are all live. No fault injection here — this is the
// fault-free half of the storm's contract, so it must hold identically in
// TREEQ_FAULT_DISABLED builds:
//
//   - every future resolves (no broken promises, no wedged flights);
//   - every ok answer is bit-identical to a serial replay against the
//     exact document handle submitted — a cache or singleflight layer
//     serving an answer from a replaced document's epoch fails this;
//   - the in-flight table drains to empty once all futures are ready.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/eval_cache.h"
#include "cache/result_cache.h"
#include "engine/engine.h"
#include "fault/storm.h"
#include "tree/generator.h"
#include "util/random.h"

namespace treeq {
namespace engine {
namespace {

Tree SmallCatalog(Rng* rng) {
  CatalogOptions opts;
  opts.num_products = static_cast<int>(rng->Uniform(12, 32));
  return CatalogDocument(rng, opts);
}

struct Recorded {
  Submission submission;
  PlanPtr plan;
  DocumentPtr document;  // pins the epoch the request was submitted for
};

TEST(EngineChurnTest, BatchesRaceDocumentChurnWithoutStaleResults) {
  const int rounds = fault::StressIters(8);
  constexpr int kNumDocs = 2;
  constexpr int kChurners = 2;
  constexpr int kSubmitters = 3;

  std::vector<PlanPtr> plans;
  for (const char* text :
       {"//review[rating5]", "/catalog/product[reviews/review]/name",
        "//product/descendant::rating5"}) {
    plans.push_back(Plan::Compile(Language::kXPath, text).value());
  }

  for (int round = 1; round <= rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    cache::EvalCache eval_cache(cache::EvalCacheOptions{});
    cache::ResultCache result_cache(cache::ResultCacheOptions{});
    DocumentStore store;
    store.AddEvictionListener([&](uint64_t epoch) {
      eval_cache.InvalidateDocument(epoch);
      result_cache.InvalidateDocument(epoch);
    });
    {
      Rng rng(static_cast<uint64_t>(round) * 131u);
      for (int i = 0; i < kNumDocs; ++i) {
        ASSERT_TRUE(store.Add("doc" + std::to_string(i), SmallCatalog(&rng))
                        .ok());
      }
    }

    Executor::Options opts;
    opts.num_workers = 3;
    opts.queue_capacity = 32;
    opts.eval_cache = &eval_cache;
    opts.result_cache = &result_cache;
    opts.singleflight = true;
    Executor executor(opts);

    std::atomic<bool> stop{false};
    std::vector<std::thread> churners;
    for (int c = 0; c < kChurners; ++c) {
      churners.emplace_back([&, c] {
        Rng rng(static_cast<uint64_t>(round) * 977u +
                static_cast<uint64_t>(c));
        while (!stop.load(std::memory_order_relaxed)) {
          const std::string name =
              "doc" + std::to_string(rng.Uniform(0, kNumDocs - 1));
          if (rng.Bernoulli(0.25)) {
            (void)store.Remove(name);
            (void)store.Add(name, SmallCatalog(&rng));
          } else {
            (void)store.Replace(name, SmallCatalog(&rng));
          }
          std::this_thread::yield();
        }
      });
    }

    std::atomic<size_t> gets{0};
    std::atomic<size_t> not_found{0};
    std::mutex recorded_mu;
    std::vector<Recorded> recorded;
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        Rng rng(static_cast<uint64_t>(round) * 7919u +
                static_cast<uint64_t>(s));
        std::vector<Recorded> local;
        // Every Get can miss while both documents sit between a churner's
        // Remove and its Add (which first builds a fresh catalog), so a
        // submitter goes on past its 24 operations until it has recorded
        // a request, for at most 10 s.
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        for (int op = 0;
             op < 24 || (local.empty() &&
                         std::chrono::steady_clock::now() < give_up);
             ++op) {
          const int requests = static_cast<int>(rng.Uniform(1, 6));
          for (int i = 0; i < requests; ++i) {
            Result<DocumentPtr> doc = store.Get(
                "doc" + std::to_string(rng.Uniform(0, kNumDocs - 1)));
            gets.fetch_add(1, std::memory_order_relaxed);
            if (!doc.ok()) {  // lost a Remove race; fine
              not_found.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            Recorded r;
            r.plan = plans[static_cast<size_t>(
                rng.Uniform(0, static_cast<int64_t>(plans.size()) - 1))];
            r.document = *doc;
            r.submission = executor.Submit({r.plan, r.document, {}});
            local.push_back(std::move(r));
          }
        }
        std::lock_guard<std::mutex> lock(recorded_mu);
        for (Recorded& r : local) recorded.push_back(std::move(r));
      });
    }

    for (std::thread& t : submitters) t.join();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : churners) t.join();

    // Every future must resolve: a leaked singleflight entry or a dropped
    // promise wedges here, not silently.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (Recorded& r : recorded) {
      ASSERT_EQ(r.submission.future.wait_until(deadline),
                std::future_status::ready)
          << "future not resolved: '" << r.plan->text() << "' on "
          << r.document->name();
    }
    EXPECT_EQ(executor.inflight().size(), 0u)
        << "in-flight entries leaked past their futures";

    size_t checked = 0;
    for (Recorded& r : recorded) {
      Result<QueryResult> outcome = r.submission.future.get();
      // Unbounded submits can only fail through admission control /
      // shutdown, neither of which this test exercises.
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      Result<QueryResult> replay =
          r.plan->Execute(*r.document, ExecContext::Unbounded(), {});
      ASSERT_TRUE(replay.ok()) << replay.status().ToString();
      EXPECT_EQ(outcome->nodes(), replay->nodes())
          << "stale or corrupt answer for '" << r.plan->text() << "' on "
          << r.document->name() << " (epoch " << r.document->epoch() << ")";
      ++checked;
    }
    EXPECT_GT(checked, 0u) << not_found.load() << " of " << gets.load()
                           << " Gets found no document";
    executor.Shutdown();
  }
}

}  // namespace
}  // namespace engine
}  // namespace treeq
