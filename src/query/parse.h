#ifndef TREEQ_QUERY_PARSE_H_
#define TREEQ_QUERY_PARSE_H_

#include <memory>
#include <optional>
#include <string_view>

#include "cq/ast.h"
#include "datalog/ast.h"
#include "fo/ast.h"
#include "util/status.h"
#include "xpath/ast.h"

/// \file parse.h
/// The one front door over the four query-language parsers. Instead of
/// picking among xpath::ParseXPath / cq::ParseCq / datalog::ParseProgram /
/// fo::ParseFo, callers name the language and hand over the text:
///
///   TREEQ_ASSIGN_OR_RETURN(ParsedQuery q,
///                          ParseQuery(Language::kXPath, "//book/author"));
///
/// Error contract (asserted by tests/parse_query_test.cc): every parse
/// failure from any language is a Status with code kParseError whose
/// message ends in " at offset <N>", N the byte offset of the failure in
/// the input. The engine's Plan::Compile (engine/plan.h) builds on this.

namespace treeq {

/// The four query languages the repo implements (Sections 3-6 of the
/// paper), in the order ROADMAP lists them.
enum class Language {
  kXPath,    // Core XPath, set-at-a-time evaluation
  kCq,       // conjunctive queries, dichotomy-routed
  kDatalog,  // monadic datalog, TMNF pipeline
  kFo,       // first-order logic, Corollary 5.2 pipeline
};

inline constexpr int kNumLanguages = 4;

/// Canonical lowercase name: "xpath", "cq", "datalog", "fo".
const char* LanguageName(Language language);

/// Inverse of LanguageName (case-sensitive). NotFound for anything else.
Result<Language> ParseLanguageName(std::string_view name);

/// A parsed query of any language: exactly the member matching `language`
/// is set. A ParsedQuery is movable but not copyable (the xpath/fo ASTs
/// are unique_ptr trees).
struct ParsedQuery {
  Language language = Language::kXPath;
  std::unique_ptr<xpath::PathExpr> xpath;   // kXPath
  std::optional<cq::ConjunctiveQuery> cq;   // kCq
  std::optional<datalog::Program> datalog;  // kDatalog
  std::unique_ptr<fo::Formula> fo;          // kFo
};

/// Parses `text` as a `language` query via the language's own parser.
/// All errors are kParseError with a trailing " at offset <N>". XPath and
/// FO are the two recursive grammars; both refuse expressions nested
/// deeper than kMaxNesting levels (util/nesting.h). The CQ and datalog
/// grammars are flat.
Result<ParsedQuery> ParseQuery(Language language, std::string_view text);

}  // namespace treeq

#endif  // TREEQ_QUERY_PARSE_H_
