// Tests for the unified treeq::ParseQuery front door and the error-format
// contract shared by all four language parsers: every parse failure is a
// kParseError whose message ends in " at offset <N>".

#include "query/parse.h"

#include <gtest/gtest.h>

#include <string>

#include "cq/parser.h"
#include "datalog/parser.h"
#include "fo/parser.h"
#include "util/nesting.h"
#include "xpath/parser.h"

namespace treeq {
namespace {

/// Asserts the unified error shape: ParseError + trailing byte offset.
void ExpectParseErrorWithOffset(const Status& status) {
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  const std::string& msg = status.message();
  size_t marker = msg.rfind(" at offset ");
  ASSERT_NE(marker, std::string::npos) << msg;
  std::string digits = msg.substr(marker + std::string(" at offset ").size());
  ASSERT_FALSE(digits.empty()) << msg;
  for (char c : digits) {
    EXPECT_TRUE(c >= '0' && c <= '9') << msg;
  }
}

TEST(LanguageTest, NamesRoundTrip) {
  for (Language lang : {Language::kXPath, Language::kCq, Language::kDatalog,
                        Language::kFo}) {
    Result<Language> back = ParseLanguageName(LanguageName(lang));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), lang);
  }
  EXPECT_EQ(ParseLanguageName("sql").status().code(), StatusCode::kNotFound);
}

TEST(ParseQueryTest, ParsesEachLanguage) {
  Result<ParsedQuery> xp = ParseQuery(Language::kXPath, "//a/b[c]");
  ASSERT_TRUE(xp.ok());
  EXPECT_EQ(xp->language, Language::kXPath);
  EXPECT_NE(xp->xpath, nullptr);
  EXPECT_FALSE(xp->cq.has_value());

  Result<ParsedQuery> cq =
      ParseQuery(Language::kCq, "Q() :- Child+(x, y), Lab_a(y).");
  ASSERT_TRUE(cq.ok());
  ASSERT_TRUE(cq->cq.has_value());
  EXPECT_TRUE(cq->cq->IsBoolean());

  Result<ParsedQuery> dl = ParseQuery(
      Language::kDatalog, "P(x) :- Lab_a(x).\n?- P.");
  ASSERT_TRUE(dl.ok());
  ASSERT_TRUE(dl->datalog.has_value());
  EXPECT_EQ(dl->datalog->query_predicate(), "P");

  Result<ParsedQuery> fo =
      ParseQuery(Language::kFo, "exists x . Lab_a(x)");
  ASSERT_TRUE(fo.ok());
  EXPECT_NE(fo->fo, nullptr);
}

TEST(ParseQueryTest, ErrorFormatIsUniformAcrossLanguages) {
  // One syntactically broken input per language.
  ExpectParseErrorWithOffset(
      ParseQuery(Language::kXPath, "//a[unclosed").status());
  ExpectParseErrorWithOffset(
      ParseQuery(Language::kCq, "Q() :- Child+(x, y").status());
  ExpectParseErrorWithOffset(
      ParseQuery(Language::kDatalog, "P(x) :- Lab_a(x)").status());
  ExpectParseErrorWithOffset(
      ParseQuery(Language::kFo, "exists x . (Lab_a(x)").status());
}

TEST(ParseQueryTest, DirectParserEntryPointsShareTheFormat) {
  // The front door adds nothing: the per-language parsers themselves emit
  // the uniform shape, so legacy callers see identical messages.
  ExpectParseErrorWithOffset(xpath::ParseXPath("//a[").status());
  ExpectParseErrorWithOffset(cq::ParseCq("Q( :- ").status());
  ExpectParseErrorWithOffset(datalog::ParseProgram("P(x :-").status());
  ExpectParseErrorWithOffset(fo::ParseFo("exists . x").status());
}

TEST(ParseQueryTest, ValidationFailuresAreParseErrorsWithOffset) {
  // Post-parse validation failures (Program::Validate) must surface in the
  // same shape as syntax errors: datalog referencing an undefined
  // intensional predicate parses fine but fails validation.
  ExpectParseErrorWithOffset(
      ParseQuery(Language::kDatalog, "P(x) :- Undefined(x).\n?- P.")
          .status());
}

TEST(ParseQueryTest, OffsetPointsIntoTheInput) {
  Result<ParsedQuery> r = ParseQuery(Language::kXPath, "//a[//b");
  ASSERT_FALSE(r.ok());
  const std::string& msg = r.status().message();
  size_t marker = msg.rfind(" at offset ");
  ASSERT_NE(marker, std::string::npos);
  int offset = std::stoi(msg.substr(marker + 11));
  EXPECT_GE(offset, 0);
  EXPECT_LE(offset, 8);  // within (or one past) the 8-byte input
}

TEST(ParseQueryTest, ParsedQueryIsMovable) {
  Result<ParsedQuery> r = ParseQuery(Language::kXPath, "//a");
  ASSERT_TRUE(r.ok());
  ParsedQuery moved = std::move(r).value();
  EXPECT_EQ(moved.language, Language::kXPath);
  EXPECT_NE(moved.xpath, nullptr);
}

TEST(ParseQueryTest, NestingPastTheBoundIsAParseError) {
  // The qualifier bracket, each not(...) and the innermost path are one
  // level apiece: kMaxNesting - 2 nots sit exactly at the bound.
  auto nots = [](int count) {
    std::string text = "*[";
    for (int i = 0; i < count; ++i) text += "not(";
    text += "a";
    for (int i = 0; i < count; ++i) text += ")";
    return text + "]";
  };
  ASSERT_TRUE(ParseQuery(Language::kXPath, nots(kMaxNesting - 2)).ok());

  auto deeper = ParseQuery(Language::kXPath, nots(kMaxNesting - 1));
  ASSERT_FALSE(deeper.ok());
  EXPECT_EQ(deeper.status().code(), StatusCode::kParseError);
  EXPECT_NE(deeper.status().ToString().find("nesting deeper than 1024"),
            std::string::npos)
      << deeper.status().ToString();
  EXPECT_NE(deeper.status().ToString().find(" at offset "),
            std::string::npos)
      << deeper.status().ToString();
}

}  // namespace
}  // namespace treeq
