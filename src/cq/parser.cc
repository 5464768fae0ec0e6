#include "cq/parser.h"

#include <cctype>
#include <string>
#include <unordered_map>

namespace treeq {
namespace cq {
namespace {

class CqParser {
 public:
  explicit CqParser(std::string_view input) : input_(input) {}

  Result<ConjunctiveQuery> Parse() {
    ConjunctiveQuery query;
    Skip();
    TREEQ_ASSIGN_OR_RETURN(std::string head, ParseName());
    (void)head;  // the head predicate name is decorative
    TREEQ_RETURN_IF_ERROR(Expect('('));
    Skip();
    if (Peek() != ')') {
      for (;;) {
        TREEQ_ASSIGN_OR_RETURN(std::string v, ParseName());
        query.AddHeadVar(InternVar(&query, v));
        Skip();
        if (Peek() == ',') {
          ++pos_;
          continue;
        }
        break;
      }
    }
    TREEQ_RETURN_IF_ERROR(Expect(')'));
    Skip();
    if (input_.substr(pos_).starts_with(":-") ||
        input_.substr(pos_).starts_with("<-")) {
      pos_ += 2;
    } else {
      return Error("expected ':-'");
    }
    for (;;) {
      Skip();
      TREEQ_ASSIGN_OR_RETURN(std::string name, ParseName());
      if (name == "true") {
        // empty body marker
      } else if (name == "Label") {
        TREEQ_RETURN_IF_ERROR(Expect('('));
        TREEQ_ASSIGN_OR_RETURN(std::string label, ParseQuoted());
        TREEQ_RETURN_IF_ERROR(Expect(','));
        TREEQ_ASSIGN_OR_RETURN(std::string v, ParseName());
        TREEQ_RETURN_IF_ERROR(Expect(')'));
        query.AddLabelAtom(label, InternVar(&query, v));
      } else if (name.starts_with("Lab_")) {
        TREEQ_RETURN_IF_ERROR(Expect('('));
        TREEQ_ASSIGN_OR_RETURN(std::string v, ParseName());
        TREEQ_RETURN_IF_ERROR(Expect(')'));
        query.AddLabelAtom(name.substr(4), InternVar(&query, v));
      } else {
        Result<Axis> axis = ParseAxis(name);
        if (!axis.ok()) return Error("unknown atom '" + name + "'");
        TREEQ_RETURN_IF_ERROR(Expect('('));
        TREEQ_ASSIGN_OR_RETURN(std::string v0, ParseName());
        TREEQ_RETURN_IF_ERROR(Expect(','));
        TREEQ_ASSIGN_OR_RETURN(std::string v1, ParseName());
        TREEQ_RETURN_IF_ERROR(Expect(')'));
        // Sequence the interning calls so first occurrence order assigns
        // variable indices left-to-right (argument evaluation order is
        // unspecified).
        int i0 = InternVar(&query, v0);
        int i1 = InternVar(&query, v1);
        query.AddAxisAtom(axis.value(), i0, i1);
      }
      Skip();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      TREEQ_RETURN_IF_ERROR(Expect('.'));
      break;
    }
    Skip();
    if (!Eof()) return Error("trailing input");
    // Route validation failures through Error() so every non-OK outcome of
    // ParseCq is a ParseError carrying the byte offset.
    if (Status valid = query.Validate(); !valid.ok()) {
      return Error(valid.message());
    }
    return query;
  }

 private:
  bool Eof() const { return pos_ >= input_.size(); }
  char Peek() const { return Eof() ? '\0' : input_[pos_]; }

  /// The index of variable `name`, added to `query` at its first
  /// occurrence.
  int InternVar(ConjunctiveQuery* query, const std::string& name) {
    auto [it, added] = vars_.try_emplace(name, query->num_vars());
    if (added) query->AddVar(name);
    return it->second;
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }

  void Skip() {
    for (;;) {
      while (!Eof() && std::isspace(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
      if (!Eof() && (Peek() == '%' || Peek() == '#')) {
        while (!Eof() && Peek() != '\n') ++pos_;
        continue;
      }
      return;
    }
  }

  Status Expect(char c) {
    Skip();
    if (Peek() != c) return Error(std::string("expected '") + c + "'");
    ++pos_;
    return Status::OK();
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '+' || c == '*' || c == '-';
  }

  Result<std::string> ParseName() {
    Skip();
    size_t start = pos_;
    while (!Eof() && IsNameChar(Peek())) ++pos_;
    if (pos_ == start) return Error("expected a name");
    return std::string(input_.substr(start, pos_ - start));
  }

  Result<std::string> ParseQuoted() {
    Skip();
    if (Peek() != '"') return Error("expected '\"'");
    ++pos_;
    size_t start = pos_;
    while (!Eof() && Peek() != '"') ++pos_;
    if (Eof()) return Error("unterminated string");
    std::string s(input_.substr(start, pos_ - start));
    ++pos_;
    return s;
  }

  std::string_view input_;
  size_t pos_ = 0;
  std::unordered_map<std::string, int> vars_;  // name -> variable index
};

}  // namespace

Result<ConjunctiveQuery> ParseCq(std::string_view input) {
  return CqParser(input).Parse();
}

}  // namespace cq
}  // namespace treeq
