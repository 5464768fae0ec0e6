// Robustness tests: the four parsers must return a Status (never crash,
// never hang) on arbitrary byte soup, near-miss inputs, and pathological
// nesting; random *valid* queries round-trip through print/parse.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "cq/parser.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "fault/fault.h"
#include "fo/parser.h"
#include "obs/flight_recorder.h"
#include "query/parse.h"
#include "tree/generator.h"
#include "tree/xml.h"
#include "util/nesting.h"
#include "util/random.h"
#include "xpath/parser.h"

namespace treeq {
namespace {

std::string RandomBytes(Rng* rng, int max_len) {
  // Printable-biased soup with the parsers' special characters overweighted.
  static const char* kSpecial = "()[]{}/\\|&.,:;=\"'<>!*+-@#%_ \t\n";
  std::string out;
  int len = static_cast<int>(rng->Uniform(0, max_len));
  for (int i = 0; i < len; ++i) {
    if (rng->Bernoulli(0.5)) {
      out.push_back(kSpecial[rng->Uniform(0, 29)]);
    } else if (rng->Bernoulli(0.9)) {
      out.push_back(static_cast<char>(rng->Uniform('a', 'z')));
    } else {
      out.push_back(static_cast<char>(rng->Uniform(1, 255)));
    }
  }
  return out;
}

class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, RandomInputNeverCrashesAnyParser) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    std::string input = RandomBytes(&rng, 60);
    // Each call must return (ok or error), not crash.
    (void)xpath::ParseXPath(input);
    (void)cq::ParseCq(input);
    (void)datalog::ParseProgram(input);
    (void)fo::ParseFo(input);
    (void)ParseXml(input);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(0, 5));

TEST(ParserFuzzTest, NearMissInputs) {
  const char* kInputs[] = {
      "a[", "a]", "a[[]]", "a//", "//", "/", "(((((((((a",
      "child::", "::a", "a::b::c", "lab() =", "not(", "a[lab()]",
      "Q(", "Q() :-", "Q(x) :- .", "Q(x) :- Lab_(x).",
      "?- .", "P(x) :- Label(\"unterminated, x).",
      "exists . Lab_a(x)", "exists x Lab_a(x)", "forall x .",
      "x = ", "= x",
      "<", "<a", "<a b=>", "<a></b>", "<!---->", "<a/><a/>",
  };
  for (const char* input : kInputs) {
    (void)xpath::ParseXPath(input);
    (void)cq::ParseCq(input);
    (void)datalog::ParseProgram(input);
    (void)fo::ParseFo(input);
    (void)ParseXml(input);
  }
  SUCCEED();
}

// Asserts the parser error contract: kParseError whose message ends in
// " at offset <N>" with N a byte offset inside (or just past) the input.
void ExpectOffsetError(const Status& status, size_t input_size,
                       const std::string& input_for_message) {
  EXPECT_EQ(status.code(), StatusCode::kParseError) << input_for_message;
  const std::string& msg = status.message();
  size_t marker = msg.rfind(" at offset ");
  ASSERT_NE(marker, std::string::npos)
      << "no offset in error for input: " << input_for_message
      << "\n  message: " << msg;
  std::string digits = msg.substr(marker + 11);
  ASSERT_FALSE(digits.empty()) << msg;
  uint64_t offset = 0;
  for (char c : digits) {
    ASSERT_TRUE(std::isdigit(static_cast<unsigned char>(c)))
        << "non-numeric offset suffix in: " << msg;
    offset = offset * 10 + static_cast<uint64_t>(c - '0');
  }
  EXPECT_LE(offset, input_size)
      << "offset past end of input for: " << input_for_message;
}

TEST(XmlFuzzTest, DepthGuardStopsRunawayNesting) {
  // 200k unclosed opens would previously recurse 200k frames deep; the
  // depth guard must turn that into an offset-carrying ParseError well
  // before the stack is at risk.
  std::string bomb;
  bomb.reserve(600000);
  for (int i = 0; i < 200000; ++i) bomb += "<a>";
  Result<Tree> r = ParseXml(bomb);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("nesting deeper"), std::string::npos);
  ExpectOffsetError(r.status(), bomb.size(), "<a>*200000");

  // The same bomb closed properly is still over the limit: balance does
  // not matter, depth does.
  std::string balanced = bomb;
  for (int i = 0; i < 200000; ++i) balanced += "</a>";
  EXPECT_FALSE(ParseXml(balanced).ok());
}

TEST(XmlFuzzTest, DepthGuardBoundaryIsExact) {
  XmlOptions options;
  options.max_depth = 32;
  auto nested = [](int depth) {
    std::string doc;
    for (int i = 0; i < depth; ++i) doc += "<a>";
    for (int i = 0; i < depth; ++i) doc += "</a>";
    return doc;
  };
  Result<Tree> at_limit = ParseXml(nested(32), options);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(at_limit.value().Depth(), 31);  // root at depth 0

  Result<Tree> over = ParseXml(nested(33), options);
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().message().find("nesting deeper than 32"),
            std::string::npos);
  // Siblings do not accumulate depth: wide documents are unaffected.
  std::string wide = "<r>";
  for (int i = 0; i < 5000; ++i) wide += "<a/>";
  wide += "</r>";
  EXPECT_TRUE(ParseXml(wide, options).ok());
}

TEST(XmlFuzzTest, UnbalancedTagSoupNeverCrashes) {
  static const char* kFragments[] = {
      "<a>", "</a>", "<b>", "</b>", "<a/>", "<c x='1'>", "</c>",
      "text", "<!-- c -->", "</unopened>", "<a", ">",
  };
  XmlOptions options;
  options.max_depth = 64;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed);
    std::string doc;
    int len = static_cast<int>(rng.Uniform(1, 400));
    for (int i = 0; i < len; ++i) {
      doc += kFragments[rng.Uniform(0, std::size(kFragments) - 1)];
    }
    Result<Tree> r = ParseXml(doc, options);  // must return, not crash
    if (!r.ok()) {
      ExpectOffsetError(r.status(), doc.size(), doc.substr(0, 80));
    }
  }
}

TEST(ParseQueryFuzzTest, TruncatedValidQueriesKeepOffsetContract) {
  // Every strict prefix of a valid query either still parses (some
  // prefixes are complete queries) or fails with the documented
  // " at offset <N>" ParseError — the contract Plan::Compile and its
  // callers key error rendering on.
  const std::pair<Language, std::string> kQueries[] = {
      {Language::kXPath, "/catalog/product[reviews/review]/name"},
      {Language::kXPath, "//a[b and not(c or d)]/following-sibling::e"},
      {Language::kCq,
       "Q(p, r) :- Child+(p, r), Lab_product(p), Lab_review(r)."},
      {Language::kDatalog, "Good(x) :- Lab_rating5(x).\n?- Good."},
      {Language::kFo,
       "exists x . exists y . (Child(x, y) and Lab_review(x))"},
  };
  for (const auto& [language, query] : kQueries) {
    ASSERT_TRUE(ParseQuery(language, query).ok()) << query;
    for (size_t len = 0; len < query.size(); ++len) {
      std::string prefix = query.substr(0, len);
      Result<ParsedQuery> r = ParseQuery(language, prefix);
      if (r.ok()) continue;
      ExpectOffsetError(r.status(), prefix.size(),
                        LanguageName(language) + (": " + prefix));
    }
  }
}

TEST(ParserFuzzTest, DeepNestingDoesNotOverflow) {
  // Qualifier nesting recurses, so the parser bounds it: a few hundred
  // levels parse fine, a few thousand get a clean nesting error (with the
  // offset contract) rather than a stack overflow.
  std::string ok_deep = "a";
  for (int i = 0; i < 200; ++i) ok_deep = "a[" + ok_deep + "]";
  EXPECT_TRUE(xpath::ParseXPath(ok_deep).ok());

  std::string too_deep = "a";
  for (int i = 0; i < 2000; ++i) too_deep = "a[" + too_deep + "]";
  auto r = xpath::ParseXPath(too_deep);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("nesting"), std::string::npos)
      << r.status().message();
  ExpectOffsetError(r.status(), too_deep.size(), "a[a[a[...]]]*2000");

  std::string parens(4000, '(');
  auto p = xpath::ParseXPath(parens);  // must error out, not crash
  ASSERT_FALSE(p.ok());
  ExpectOffsetError(p.status(), parens.size(), "(*4000");

  std::string fo_deep;
  for (int i = 0; i < 1000; ++i) fo_deep += "exists v . ";
  fo_deep += "Lab_a(v)";
  EXPECT_TRUE(fo::ParseFo(fo_deep).ok());
}

// ---------------------------------------------------------------------------
// The nesting bound at the front door
// ---------------------------------------------------------------------------

// One nesting shape per row: `text(levels)` is a query whose nesting is
// exactly `levels`, as util/nesting.h counts it.
struct NestingShape {
  const char* name;
  Language language;
  std::string (*text)(int levels);
};

std::string Repeat(const std::string& piece, int count) {
  std::string out;
  out.reserve(piece.size() * static_cast<size_t>(std::max(count, 0)));
  for (int i = 0; i < count; ++i) out += piece;
  return out;
}

// A chain of `levels + 1` operands joined by `op`: `levels` binary nodes.
std::string Chain(const std::string& operand, const std::string& op,
                  int levels) {
  return operand + Repeat(op + operand, levels);
}

const NestingShape kNestingShapes[] = {
    // FO: the sentence's `exists x .` is one level of the count.
    {"fo_parens", Language::kFo,
     [](int levels) {
       return "exists x . " + Repeat("(", levels - 1) + "Lab_a(x)" +
              Repeat(")", levels - 1);
     }},
    {"fo_not", Language::kFo,
     [](int levels) {
       return "exists x . " + Repeat("not ", levels - 1) + "Lab_a(x)";
     }},
    {"fo_quantifier", Language::kFo,
     [](int levels) { return Repeat("exists v . ", levels) + "Lab_a(v)"; }},
    {"fo_and_chain", Language::kFo,
     [](int levels) {
       return "exists x . " + Chain("Lab_a(x)", " and ", levels - 1);
     }},
    {"fo_or_chain", Language::kFo,
     [](int levels) {
       return "exists x . " + Chain("Lab_b(x)", " or ", levels - 1);
     }},
    {"xpath_steps", Language::kXPath,
     [](int levels) { return Chain("a", "/", levels); }},
    {"xpath_union", Language::kXPath,
     [](int levels) { return Chain("a", " | ", levels); }},
    // XPath: a bracket and the path it tests are a level each; a label
    // test is none.
    {"xpath_qualifier_nesting", Language::kXPath,
     [](int levels) {
       const int brackets = (levels + 1) / 2;
       return Repeat("a[", brackets) + (levels % 2 ? "lab() = b" : "b") +
              Repeat("]", brackets);
     }},
    {"xpath_qualifier_and_chain", Language::kXPath,
     [](int levels) { return "a[" + Chain("b", " and ", levels - 2) + "]"; }},
};

// At exactly kMaxNesting levels every shape compiles and every eligible
// engine gives the router's answer.
TEST(NestingBoundTest, EveryShapeAtTheBoundCompilesAndAnswers) {
  DocumentPtr doc = MakeDocument(
      ParseXml("<a><b><a/></b><a><b/><a><b/></a></a></a>").value());
  for (const NestingShape& shape : kNestingShapes) {
    SCOPED_TRACE(shape.name);
    Result<engine::PlanPtr> plan =
        engine::Plan::Compile(shape.language, shape.text(kMaxNesting));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    Result<QueryResult> routed = plan.value()->Execute(*doc);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    for (plan::EngineKind kind : plan.value()->EligibleEngines()) {
      engine::ExecuteOptions options;
      options.force_route = plan::EngineName(kind);
      Result<QueryResult> forced =
          plan.value()->Execute(*doc, ExecContext::Unbounded(), options);
      ASSERT_TRUE(forced.ok())
          << options.force_route << ": " << forced.status().ToString();
      EXPECT_EQ(forced->value, routed->value) << options.force_route;
    }
  }
}

// One level past the bound, and far past it, both the parser and the
// compiler refuse with the offset contract instead of overflowing.
TEST(NestingBoundTest, EveryShapePastTheBoundIsAParseError) {
  for (const NestingShape& shape : kNestingShapes) {
    for (int levels : {kMaxNesting + 1, 100000}) {
      SCOPED_TRACE(std::string(shape.name) + " at " + std::to_string(levels));
      const std::string text = shape.text(levels);
      Result<ParsedQuery> parsed = ParseQuery(shape.language, text);
      ASSERT_FALSE(parsed.ok());
      EXPECT_NE(parsed.status().message().find("nesting deeper than 1024"),
                std::string::npos)
          << parsed.status().message();
      ExpectOffsetError(parsed.status(), text.size(), shape.name);
      Result<engine::PlanPtr> plan =
          engine::Plan::Compile(shape.language, text);
      ASSERT_FALSE(plan.ok());
      EXPECT_EQ(plan.status().ToString(), parsed.status().ToString());
    }
  }
}

// ---------------------------------------------------------------------------
// Lowering robustness: adversarial queries through the logical IR
// ---------------------------------------------------------------------------

// Plan::Compile now lowers every parsed query through the IR and
// canonicalizer. Adversarial nesting must either compile (with a
// well-formed canonical hash) or fail with the same " at offset <N>"
// contract as plain parsing — the IR layers add no new crash or error
// shape.
TEST(PlanLoweringFuzzTest, AdversarialNestingKeepsOffsetContract) {
  // Deep qualifier nesting: parses, lowers, and the canonicalizer's
  // bounded rules terminate (the union rewrite caps branches; the hash
  // is always produced).
  std::string ok_deep = "a";
  for (int i = 0; i < 200; ++i) ok_deep = "a[" + ok_deep + "]";
  Result<engine::PlanPtr> deep =
      engine::Plan::Compile(Language::kXPath, "//" + ok_deep);
  ASSERT_TRUE(deep.ok()) << deep.status().ToString();
  EXPECT_EQ(deep.value()->canonical_hash().ToHex().size(), 32u);

  // Past the nesting guard, Compile reports the parser's offset error
  // unchanged — the lowering never sees the query.
  std::string too_deep = "a";
  for (int i = 0; i < 2000; ++i) too_deep = "a[" + too_deep + "]";
  Result<engine::PlanPtr> rejected =
      engine::Plan::Compile(Language::kXPath, too_deep);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("nesting"), std::string::npos);
  ExpectOffsetError(rejected.status(), too_deep.size(),
                    "compile a[a[...]]*2000");

  // Wide disjunction: qualifier unions fork lowering states; past the
  // branch cap the plan falls back to an opaque IR leaf but still
  // compiles, hashes, and runs.
  std::string wide = "a[b";
  for (int i = 0; i < 64; ++i) wide += " or b" + std::to_string(i);
  wide += "]";
  Result<engine::PlanPtr> fan =
      engine::Plan::Compile(Language::kXPath, "//" + wide);
  ASSERT_TRUE(fan.ok()) << fan.status().ToString();
  EXPECT_EQ(fan.value()->canonical_hash().ToHex().size(), 32u);
  EXPECT_FALSE(fan.value()->EligibleEngines().empty());
}

// Random parser-surviving inputs all the way through Compile: whatever
// parses must lower, canonicalize, and declare at least its native
// engine eligible; whatever fails keeps the offset contract.
TEST(PlanLoweringFuzzTest, RandomInputsLowerOrFailCleanly) {
  const Language kLanguages[] = {Language::kXPath, Language::kCq,
                                 Language::kDatalog, Language::kFo};
  Rng rng(20260808);
  const std::string alphabet =
      "ab[]()/.,:-+*= _QLChildNextSibexistsnotandorLab_?";
  for (int iter = 0; iter < 400; ++iter) {
    std::string input;
    const int len = static_cast<int>(rng.Uniform(1, 40));
    for (int i = 0; i < len; ++i) {
      input += alphabet[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(alphabet.size()) - 1))];
    }
    for (Language language : kLanguages) {
      Result<engine::PlanPtr> plan = engine::Plan::Compile(language, input);
      if (plan.ok()) {
        EXPECT_EQ(plan.value()->canonical_hash().ToHex().size(), 32u);
        EXPECT_FALSE(plan.value()->EligibleEngines().empty())
            << LanguageName(language) << ": " << input;
      } else if (plan.status().code() == StatusCode::kParseError) {
        ExpectOffsetError(plan.status(), input.size(),
                          LanguageName(language) + (": " + input));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Injection robustness: the engine under adversarial fault plans
// ---------------------------------------------------------------------------

#ifndef TREEQ_OBS_DISABLED
// An injected queue failure — at the submit side (engine.queue.push) or at
// the worker hand-off (engine.queue.pop) — must look like a clean
// Unavailable to the client AND leave a well-formed profile behind: id,
// language, query text, and status all populated, whichever side failed.
TEST(FaultFuzzTest, InjectedQueueFailuresKeepProfileContract) {
  if (!fault::kFaultPointsCompiledIn) {
    GTEST_SKIP() << "fault points compiled out";
  }
  Rng rng(11);
  CatalogOptions copts;
  copts.num_products = 10;
  DocumentPtr doc = MakeDocument(CatalogDocument(&rng, copts));
  engine::PlanPtr plan =
      engine::Plan::Compile(Language::kXPath, "//review[rating5]").value();

  for (const char* point : {"engine.queue.push", "engine.queue.pop"}) {
    SCOPED_TRACE(point);
    obs::FlightRecorder::Global().Enable(obs::FlightRecorder::Options{});
    fault::FaultPlan fplan;
    fplan.seed = 1;
    fault::FaultRule rule;
    rule.point = point;
    fplan.rules.push_back(rule);
    fault::ScopedFaultPlan armed(fplan);

    engine::Executor executor(engine::Executor::Options{});
    QueryRequest request;
    request.plan = plan;
    request.document = doc;
    Result<QueryResult> outcome = executor.Submit(request).future.get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
    executor.Shutdown();

    std::vector<obs::QueryProfile> recent =
        obs::FlightRecorder::Global().Recent();
    ASSERT_FALSE(recent.empty());
    const obs::QueryProfile& profile = recent.back();
    EXPECT_GT(profile.id, 0u);
    EXPECT_EQ(profile.language, "xpath");
    EXPECT_EQ(profile.query, "//review[rating5]");
    EXPECT_NE(profile.query_hash, 0u);
    EXPECT_FALSE(profile.ok);
    EXPECT_EQ(profile.status, "Unavailable");
    obs::FlightRecorder::Global().Disable();
  }
}
#endif  // TREEQ_OBS_DISABLED

// Arming every known point at p=1 against an executor that is already
// shut down must stay a graceful Unavailable — injection may not create a
// crash, a broken promise, or a wedge where the real code would not.
TEST(FaultFuzzTest, PostShutdownInjectionNeverAborts) {
  if (!fault::kFaultPointsCompiledIn) {
    GTEST_SKIP() << "fault points compiled out";
  }
  Rng rng(12);
  CatalogOptions copts;
  copts.num_products = 10;
  DocumentPtr doc = MakeDocument(CatalogDocument(&rng, copts));
  engine::PlanPtr plan =
      engine::Plan::Compile(Language::kXPath, "//review").value();

  fault::FaultPlan fplan;
  fplan.seed = 3;
  for (const std::string& point : fault::KnownPoints()) {
    fault::FaultRule rule;
    rule.point = point;
    fplan.rules.push_back(rule);
  }
  fault::ScopedFaultPlan armed(fplan);

  engine::Executor executor(engine::Executor::Options{});
  executor.Shutdown();
  executor.Shutdown();  // idempotent even while engine.shutdown fires
  for (int i = 0; i < 8; ++i) {
    QueryRequest request;
    request.plan = plan;
    request.document = doc;
    request.options.reject_when_full = (i % 2 == 0);
    Result<QueryResult> outcome = executor.Submit(request).future.get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
  }
}

}  // namespace
}  // namespace treeq
