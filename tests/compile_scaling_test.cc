// Compile-time scaling in |Q|. The paper's bounds are combined,
// O(|Q| * |D|), so compiling a query must stay near-linear in its size:
// each doubling ladder below times plan::Canonicalize (the minimum of 5
// runs per size) and requires every doubling to cost at most 2.5x. Two
// wall-clock limits pin the front end as well: a 4,000-atom CQ chain
// compiles in under 100 ms, and a parenthesized qualifier is parsed once,
// so nested `a[(... and d)]` qualifiers parse in well under a millisecond.
// Wall-clock limits apply to optimized, uninstrumented builds only; the
// doubling ratios apply everywhere.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/plan.h"
#include "plan/canonicalize.h"
#include "plan/lower.h"
#include "query/parse.h"
#include "util/nesting.h"

namespace treeq {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kInstrumented = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kInstrumented = true;
#else
constexpr bool kInstrumented = false;
#endif
#else
constexpr bool kInstrumented = false;
#endif

#ifdef NDEBUG
constexpr bool kWallClockLimits = !kInstrumented;
#else
constexpr bool kWallClockLimits = false;
#endif

constexpr int kRuns = 5;
constexpr double kMaxDoublingCost = 2.5;

std::string Repeat(const std::string& piece, int count) {
  std::string out;
  for (int i = 0; i < count; ++i) out += piece;
  return out;
}

// `Q(x0) :- Lab_a(x0), Child(x0, x1), ..., Child(x<atoms-1>, x<atoms>).`
std::string CqChainBody(int atoms) {
  std::string out = "Q(x0) :- Lab_a(x0)";
  for (int i = 0; i < atoms; ++i) {
    out += ", Child(x" + std::to_string(i) + ", x" + std::to_string(i + 1) +
           ")";
  }
  return out + ".";
}

// `a[(a[(...b... and d)] and d)]`, `depth` brackets deep.
std::string NestedQualifier(int depth) {
  std::string inner = "b";
  for (int i = 0; i < depth; ++i) inner = "a[(" + inner + " and d)]";
  return inner;
}

struct Ladder {
  const char* name;
  Language language;
  std::vector<int> sizes;
  std::string (*text)(int size);
};

const Ladder kLadders[] = {
    {"cq_child_chain", Language::kCq, {250, 500, 1000, 2000, 4000},
     [](int atoms) { return CqChainBody(atoms); }},
    {"datalog_child_chain", Language::kDatalog, {250, 500, 1000, 2000, 4000},
     [](int atoms) { return CqChainBody(atoms) + " ?- Q."; }},
    // `a/a/.../a`: `steps - 1` nesting levels.
    {"xpath_child_steps", Language::kXPath, {128, 256, 512, 1024},
     [](int steps) { return "a" + Repeat("/a", steps - 1); }},
    // `//a//a...`: each `//a` is about one nesting level.
    {"xpath_descendant_steps", Language::kXPath, {128, 256, 512, 1000},
     [](int steps) { return Repeat("//a", steps); }},
    // A bracket and the path it tests are a level each.
    {"xpath_qualifier_nesting", Language::kXPath, {128, 256, 512, 1024},
     [](int levels) {
       return Repeat("a[", levels / 2) + "b" + Repeat("]", levels / 2);
     }},
    // `exists x0 . Lab_a(x0) and exists x1 . Child(x0, x1) and ...`: each
    // quantifier and its `and` are a level each.
    {"fo_quantifier_chain", Language::kFo, {128, 256, 512, 1024},
     [](int levels) {
       std::string out = "exists x0 . Lab_a(x0)";
       for (int i = 1; i < levels / 2; ++i) {
         const std::string prev = "x" + std::to_string(i - 1);
         const std::string var = "x" + std::to_string(i);
         out += " and exists " + var + " . Child(" + prev + ", " + var + ")";
       }
       return out;
     }},
};

plan::LogicalPlan Lower(Language language, const std::string& text) {
  Result<ParsedQuery> parsed = ParseQuery(language, text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return {};
  switch (language) {
    case Language::kXPath:
      return plan::LowerXPath(*parsed->xpath);
    case Language::kCq:
      return plan::LowerCq(*parsed->cq);
    case Language::kDatalog:
      return plan::LowerDatalog(*parsed->datalog);
    case Language::kFo:
      return plan::LowerFo(*parsed->fo);
  }
  return {};
}

template <typename Work>
double MinSeconds(Work work) {
  double best = 1e30;
  for (int run = 0; run < kRuns; ++run) {
    const auto start = std::chrono::steady_clock::now();
    work();
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, took.count());
  }
  return best;
}

// Seconds per plan::Canonicalize at each size of `ladder`: the minimum of
// kRuns runs. A run times `batch` copies, so that every size times about
// the same total work, well above the clock's noise; the runs go round
// the sizes in turn, so that a stretch of load on a shared machine slows
// one run of several sizes rather than every run of one size.
std::vector<double> CanonicalizeSeconds(const Ladder& ladder) {
  std::vector<plan::LogicalPlan> lowered;
  for (int size : ladder.sizes) {
    lowered.push_back(Lower(ladder.language, ladder.text(size)));
    EXPECT_TRUE(lowered.back().structural()) << size;
  }
  std::vector<double> best(lowered.size(), 1e30);
  for (int run = 0; run < kRuns; ++run) {
    for (size_t i = 0; i < lowered.size(); ++i) {
      const int batch = 4 * ladder.sizes.back() / ladder.sizes[i];
      std::vector<plan::LogicalPlan> copies(static_cast<size_t>(batch),
                                            lowered[i]);
      const auto start = std::chrono::steady_clock::now();
      for (plan::LogicalPlan& copy : copies) plan::Canonicalize(&copy);
      const std::chrono::duration<double> took =
          std::chrono::steady_clock::now() - start;
      best[i] = std::min(best[i], took.count() / batch);
    }
  }
  return best;
}

// The largest cost of one doubling on `ladder`, per factor-2 growth.
double WorstDoubling(const Ladder& ladder, const std::vector<double>& seconds) {
  double worst = 0;
  for (size_t i = 1; i < seconds.size(); ++i) {
    const double growth =
        static_cast<double>(ladder.sizes[i]) / ladder.sizes[i - 1];
    worst = std::max(worst, seconds[i] / seconds[i - 1] * 2 / growth);
  }
  return worst;
}

// A ladder gets three attempts: noise from a shared machine may push one
// doubling past the limit once, while a quadratic pass costs about 4x per
// doubling every time.
TEST(CompileScalingTest, CanonicalizeIsNearLinearOnEveryLadder) {
  for (const Ladder& ladder : kLadders) {
    SCOPED_TRACE(ladder.name);
    double worst = 0;
    for (int attempt = 0; attempt < 3; ++attempt) {
      const std::vector<double> seconds = CanonicalizeSeconds(ladder);
      for (size_t i = 0; i < seconds.size(); ++i) {
        std::printf("%-24s %5d  %9.3f ms\n", ladder.name, ladder.sizes[i],
                    seconds[i] * 1e3);
      }
      worst = WorstDoubling(ladder, seconds);
      if (worst <= kMaxDoublingCost) break;
    }
    EXPECT_LE(worst, kMaxDoublingCost);
  }
}

TEST(CompileScalingTest, FourThousandAtomCqChainCompiles) {
  const std::string text = CqChainBody(4000);
  const double seconds = MinSeconds([&] {
    Result<engine::PlanPtr> plan = engine::Plan::Compile(Language::kCq, text);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  });
  std::printf("Plan::Compile, 4000-atom CQ chain: %.3f ms\n", seconds * 1e3);
  if (kWallClockLimits) {
    EXPECT_LT(seconds, 0.100);
  }
}

TEST(CompileScalingTest, ParenthesizedQualifiersParseOnce) {
  const std::string sixteen = NestedQualifier(16);
  const double sixteen_seconds = MinSeconds([&] {
    ASSERT_TRUE(ParseQuery(Language::kXPath, sixteen).ok());
  });
  // The deepest such input the nesting bound accepts.
  int deepest = 16;
  while (ParseQuery(Language::kXPath, NestedQualifier(deepest + 1)).ok()) {
    ++deepest;
  }
  const std::string past = NestedQualifier(deepest + 1);
  Result<ParsedQuery> refused = ParseQuery(Language::kXPath, past);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find(
                "nesting deeper than " + std::to_string(kMaxNesting)),
            std::string::npos)
      << refused.status().ToString();
  const std::string deep = NestedQualifier(deepest);
  const double deep_seconds = MinSeconds([&] {
    ASSERT_TRUE(ParseQuery(Language::kXPath, deep).ok());
  });
  std::printf("qualifier nesting 16: %.3f ms; %d (%zu bytes): %.3f ms\n",
              sixteen_seconds * 1e3, deepest, deep.size(), deep_seconds * 1e3);
  if (kWallClockLimits) {
    EXPECT_LT(sixteen_seconds, 0.001);
    EXPECT_LT(deep_seconds, 0.010);
  }
}

}  // namespace
}  // namespace treeq
