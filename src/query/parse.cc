#include "query/parse.h"

#include <string>
#include <utility>

#include "cq/parser.h"
#include "datalog/parser.h"
#include "fo/parser.h"
#include "xpath/parser.h"

namespace treeq {

const char* LanguageName(Language language) {
  switch (language) {
    case Language::kXPath:
      return "xpath";
    case Language::kCq:
      return "cq";
    case Language::kDatalog:
      return "datalog";
    case Language::kFo:
      return "fo";
  }
  return "unknown";
}

Result<Language> ParseLanguageName(std::string_view name) {
  if (name == "xpath") return Language::kXPath;
  if (name == "cq") return Language::kCq;
  if (name == "datalog") return Language::kDatalog;
  if (name == "fo") return Language::kFo;
  return Status::NotFound("unknown query language: " + std::string(name));
}

Result<ParsedQuery> ParseQuery(Language language, std::string_view text) {
  ParsedQuery out;
  out.language = language;
  switch (language) {
    case Language::kXPath: {
      TREEQ_ASSIGN_OR_RETURN(out.xpath, xpath::ParseXPath(text));
      return out;
    }
    case Language::kCq: {
      TREEQ_ASSIGN_OR_RETURN(cq::ConjunctiveQuery q, cq::ParseCq(text));
      out.cq = std::move(q);
      return out;
    }
    case Language::kDatalog: {
      TREEQ_ASSIGN_OR_RETURN(datalog::Program p,
                             datalog::ParseProgram(text));
      out.datalog = std::move(p);
      return out;
    }
    case Language::kFo: {
      TREEQ_ASSIGN_OR_RETURN(out.fo, fo::ParseFo(text));
      return out;
    }
  }
  return Status::InvalidArgument("invalid Language value");
}

}  // namespace treeq
