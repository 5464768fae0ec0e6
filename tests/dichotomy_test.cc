#include "cq/dichotomy.h"

#include <gtest/gtest.h>

#include "cq/naive.h"
#include "cq/parser.h"
#include "tree/generator.h"
#include "util/random.h"

namespace treeq {
namespace cq {
namespace {

ConjunctiveQuery MustParse(const std::string& text) {
  Result<ConjunctiveQuery> q = ParseCq(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

TEST(ClassifyTest, TractableSignatures) {
  EXPECT_EQ(ClassifySignature({Axis::kDescendant, Axis::kDescendantOrSelf}),
            SignatureClass::kTau1);
  EXPECT_EQ(ClassifySignature({Axis::kFollowing}), SignatureClass::kTau2);
  EXPECT_EQ(ClassifySignature({Axis::kChild, Axis::kNextSibling,
                               Axis::kFollowingSibling,
                               Axis::kFollowingSiblingOrSelf}),
            SignatureClass::kTau3);
  EXPECT_EQ(ClassifySignature({Axis::kSelf}), SignatureClass::kTau1);
  EXPECT_EQ(ClassifySignature({}), SignatureClass::kTau1);
}

TEST(ClassifyTest, InverseAxesClassifyLikeBaseAxes) {
  EXPECT_EQ(ClassifySignature({Axis::kAncestor}), SignatureClass::kTau1);
  EXPECT_EQ(ClassifySignature({Axis::kPreceding}), SignatureClass::kTau2);
  EXPECT_EQ(ClassifySignature({Axis::kParent, Axis::kPrevSibling}),
            SignatureClass::kTau3);
}

TEST(ClassifyTest, NpHardCombinations) {
  // The canonical hard mixes from Theorem 6.8's discussion: no single
  // order covers them.
  EXPECT_EQ(ClassifySignature({Axis::kChild, Axis::kDescendant}),
            SignatureClass::kNpHard);
  EXPECT_EQ(ClassifySignature({Axis::kDescendant, Axis::kFollowing}),
            SignatureClass::kNpHard);
  EXPECT_EQ(ClassifySignature({Axis::kDescendant, Axis::kNextSibling}),
            SignatureClass::kNpHard);
  EXPECT_EQ(ClassifySignature({Axis::kFollowing, Axis::kNextSibling}),
            SignatureClass::kNpHard);
  EXPECT_EQ(ClassifySignature({Axis::kChild, Axis::kFollowing}),
            SignatureClass::kNpHard);
}

TEST(ClassifyTest, OrderForClassMapping) {
  EXPECT_EQ(OrderForClass(SignatureClass::kTau1), TreeOrder::kPre);
  EXPECT_EQ(OrderForClass(SignatureClass::kTau2), TreeOrder::kPost);
  EXPECT_EQ(OrderForClass(SignatureClass::kTau3), TreeOrder::kBflr);
  EXPECT_EQ(OrderForClass(SignatureClass::kNpHard), std::nullopt);
}

class DichotomyAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(DichotomyAgreementTest, DispatcherMatchesNaive) {
  Rng rng(GetParam());
  RandomTreeOptions opts;
  opts.num_nodes = 18;
  opts.attach_window = 1 + GetParam() % 5;
  Document doc(RandomTree(&rng, opts));
  struct Case {
    const char* text;
    bool tractable;
  };
  const Case kCases[] = {
      {"Q() :- Child+(x, y), Child+(y, z), Child+(x, z), Lab_a(y).", true},
      {"Q() :- Following(x, y), Following(y, z), Lab_b(x).", true},
      {"Q() :- Child(x, y), Child(x, z), NextSibling(y, z).", true},
      {"Q() :- ancestor(x, y), Lab_a(y).", true},
      // Hard signatures fall back to search.
      {"Q() :- Child(x, y), Child+(y, z), Lab_c(z).", false},
      {"Q() :- Child+(x, y), Following(x, z), Lab_a(z).", false},
      {"Q() :- Child+(x, y), NextSibling(y, z).", false},
  };
  for (const Case& c : kCases) {
    ConjunctiveQuery q = MustParse(c.text);
    bool used_tractable = false;
    Result<bool> fast = EvaluateBooleanDichotomy(q, doc, &used_tractable);
    ASSERT_TRUE(fast.ok()) << c.text << ": " << fast.status().ToString();
    EXPECT_EQ(used_tractable, c.tractable) << c.text;
    Result<bool> slow = NaiveSatisfiableCq(q, doc);
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(fast.value(), slow.value()) << c.text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DichotomyAgreementTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace cq
}  // namespace treeq
