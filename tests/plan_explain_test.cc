// Golden-file tests for Plan::Explain and Plan::ExplainRouting. The
// explain string is an API surface: the flight recorder stores it, the
// dashboards grep it, and `query_server --explain` prints it — so its
// exact shape is pinned here. Each golden covers the three sections of
// the compile-time line (legacy classification | canonical IR + hash |
// eligible routes) for one representative per language and plan shape;
// the routing golden pins the cost-ranked, native-starred format of the
// per-document line.
//
// If a change to the canonicalizer or cost model legitimately moves one
// of these strings, update the golden here AND check the flight-recorder
// dashboards for consumers of the old shape.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <string>

#include "tree/generator.h"
#include "util/random.h"

namespace treeq {
namespace engine {
namespace {

DocumentPtr SmallCatalog() {
  Rng rng(1);
  CatalogOptions opts;
  opts.num_products = 5;
  return MakeDocument(CatalogDocument(&rng, opts));
}

std::string ExplainFor(Language language, const char* text) {
  Result<PlanPtr> plan = Plan::Compile(language, text);
  EXPECT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
  if (!plan.ok()) return "";
  return plan.value()->Explain();
}

TEST(PlanExplainTest, XPathStructuralGolden) {
  EXPECT_EQ(
      ExplainFor(Language::kXPath, "//product//rating5"),
      "xpath: set-at-a-time evaluator; stream fallback available (forward "
      "rewrite); est. visits = |Q|*(|D|+1), |Q|=9 | ir: arity=1 branches=1 "
      "| [0] v0{rating5}=>0 v1{product} v2{} v1 -descendant-> v0 v2 "
      "-descendant-> v1 hash=948634bab10eee0aa56e4faf39a543c4 | routes: "
      "xpath.set_at_a_time xpath.naive xpath.stream datalog.tmnf "
      "cq.yannakakis");
}

TEST(PlanExplainTest, XPathOpaqueGolden) {
  // Negation is outside the structural fragment: the IR is an opaque
  // leaf (language-tagged canonical rendering) and only the native
  // engines are eligible.
  EXPECT_EQ(
      ExplainFor(Language::kXPath, "//a[not(b)]"),
      "xpath: set-at-a-time evaluator; no stream fallback; est. visits = "
      "|Q|*(|D|+1), |Q|=8 | ir: arity=1 opaque(xpath:descendant-or-self::"
      "*/child::*[lab() = \"a\"][not(child::*[lab() = \"b\"])]) "
      "hash=2b76806b91abb967a8177b95d8a26503 | routes: xpath.set_at_a_time "
      "xpath.naive");
}

TEST(PlanExplainTest, BooleanCqGolden) {
  EXPECT_EQ(
      ExplainFor(Language::kCq, "Q() :- Child+(x, y), Lab_a(x), Lab_b(y)."),
      "cq boolean: class tau1 (<pre) -> X-property evaluation; est. visits "
      "= |Q|*(|D|+1), |Q|=2 | ir: arity=0 branches=1 | [0] v0{a} v1{b} v0 "
      "-descendant-> v1 hash=ea8f95a9c1dc43867dda6856d5bcb2d3 | routes: "
      "cq.dichotomy cq.yannakakis fo.corollary52 fo.naive");
}

TEST(PlanExplainTest, KAryCqGolden) {
  EXPECT_EQ(
      ExplainFor(Language::kCq,
                 "Q(p, r) :- Child+(w, p), Child+(p, r), Lab_product(p), "
                 "Lab_review(r)."),
      "cq k-ary: class tau1 (<pre) -> acyclic enumeration (Yannakakis); "
      "est. visits = |Q|*(|D|+1), |Q|=3 | ir: arity=2 branches=1 | [0] "
      "v0{product}=>0 v1{} v2{review}=>1 v0 -descendant-> v2 v1 "
      "-descendant-> v0 hash=087669d767d1613f6992a78dc473d7c9 | routes: "
      "cq.yannakakis");
}

TEST(PlanExplainTest, DatalogGolden) {
  EXPECT_EQ(
      ExplainFor(Language::kDatalog,
                 "Q(y) :- Child+(w, x), Lab_name(y), Child(x, y). ?- Q."),
      "datalog: TMNF grounding + fixpoint; est. visits = |Q|*(|D|+1), "
      "|Q|=1 | ir: arity=1 branches=1 | [0] v0{name}=>0 v1{} v2{} v1 "
      "-child-> v0 v2 -descendant-> v1 "
      "hash=01a881186117c1ab2303f7348b9ae9a2 | routes: datalog.tmnf "
      "cq.yannakakis");
}

TEST(PlanExplainTest, FoGoldens) {
  EXPECT_EQ(
      ExplainFor(Language::kFo, "exists x . Lab_name(x)"),
      "fo: positive sentence -> Corollary 5.2 pipeline; est. visits = "
      "|Q|*(|D|+1), |Q|=2 | ir: arity=0 branches=1 | [0] v0{name} "
      "hash=e2e4d4c059af30344e068ce9a693a249 | routes: fo.corollary52 "
      "fo.naive cq.dichotomy cq.yannakakis");
  EXPECT_EQ(
      ExplainFor(Language::kFo, "forall x . not Lab_z(x)"),
      "fo: sentence with negation -> naive model checking; est. visits = "
      "|Q|*(|D|+1), |Q|=3 | ir: arity=0 opaque(fo:forall v0 . not "
      "Lab_z(v0)) hash=28e8a2a8ff74cb27b8ae4d91fbd1815a | routes: "
      "fo.naive");
}

// Two dialects of the same query must print the same IR and hash
// sections even though their legacy classification prefixes differ.
TEST(PlanExplainTest, DialectsShareTheIrSection) {
  PlanPtr xp = Plan::Compile(Language::kXPath, "//product//rating5").value();
  PlanPtr cq = Plan::Compile(Language::kCq,
                             "Q(y) :- Child+(w, x), Child+(x, y), "
                             "Lab_product(x), Lab_rating5(y).")
                   .value();
  const std::string xp_ir = xp->Explain().substr(xp->Explain().find(" | ir:"));
  const std::string cq_ir = cq->Explain().substr(cq->Explain().find(" | ir:"));
  // Same IR + hash; the route list may differ (each language keeps its
  // native engines), so compare up to the routes section.
  EXPECT_EQ(xp_ir.substr(0, xp_ir.find(" | routes:")),
            cq_ir.substr(0, cq_ir.find(" | routes:")));
}

TEST(PlanExplainTest, RoutingGolden) {
  DocumentPtr doc = SmallCatalog();
  PlanPtr plan = Plan::Compile(Language::kXPath, "//product//rating5").value();
  EXPECT_EQ(plan->ExplainRouting(*doc),
            "routing n=62: xpath.set_at_a_time=252* cq.yannakakis=282 "
            "xpath.stream=372 datalog.tmnf=620 xpath.naive=19220");
}

}  // namespace
}  // namespace engine
}  // namespace treeq
