#include "fo/parser.h"

#include <cctype>
#include <string>
#include <utility>

#include "util/nesting.h"

namespace treeq {
namespace fo {
namespace {

using NestedFormula = Nested<Formula>;

class FoParser {
 public:
  explicit FoParser(std::string_view input) : input_(input) {}

  Result<std::unique_ptr<Formula>> Parse() {
    NestedFormula f;
    TREEQ_RETURN_IF_ERROR(ParseFormula(&f));
    Skip();
    if (!Eof()) return Error("trailing input");
    return std::move(f.node);
  }

 private:
  bool Eof() const { return pos_ >= input_.size(); }
  char Peek() const { return Eof() ? '\0' : input_[pos_]; }

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

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '+' || c == '*' || c == '-';
  }

  bool MatchWord(std::string_view word) {
    Skip();
    if (!input_.substr(pos_).starts_with(word)) return false;
    size_t end = pos_ + word.size();
    if (end < input_.size() && IsNameChar(input_[end])) return false;
    pos_ = end;
    return true;
  }

  bool Match(char c) {
    Skip();
    if (Peek() != c) return false;
    ++pos_;
    return true;
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

  Status ParseFormula(NestedFormula* out) {
    // Quantifiers scope maximally to the right.
    if (MatchWord("exists")) return ParseQuantified(/*forall=*/false, out);
    if (MatchWord("forall")) return ParseQuantified(/*forall=*/true, out);
    return ParseOr(out);
  }

  Status ParseQuantified(bool forall, NestedFormula* out) {
    TREEQ_ASSIGN_OR_RETURN(std::string var, ParseName());
    if (!Match('.')) return Error("expected '.' after quantifier");
    TREEQ_RETURN_IF_ERROR(
        nesting_.Nest(pos_, out, [&] { return ParseFormula(out); }));
    out->node = forall ? Formula::ForAll(var, std::move(out->node))
                       : Formula::Exists(var, std::move(out->node));
    return Status::OK();
  }

  Status ParseOr(NestedFormula* out) {
    TREEQ_RETURN_IF_ERROR(ParseAnd(out));
    while (MatchWord("or")) {
      NestedFormula right;
      TREEQ_RETURN_IF_ERROR(ParseAnd(&right));
      TREEQ_RETURN_IF_ERROR(
          nesting_.Chain(pos_, out, std::move(right), Formula::Or));
    }
    return Status::OK();
  }

  Status ParseAnd(NestedFormula* out) {
    TREEQ_RETURN_IF_ERROR(ParseUnary(out));
    while (MatchWord("and")) {
      NestedFormula right;
      TREEQ_RETURN_IF_ERROR(ParseUnary(&right));
      TREEQ_RETURN_IF_ERROR(
          nesting_.Chain(pos_, out, std::move(right), Formula::And));
    }
    return Status::OK();
  }

  Status ParseUnary(NestedFormula* out) {
    if (MatchWord("not")) {
      TREEQ_RETURN_IF_ERROR(
          nesting_.Nest(pos_, out, [&] { return ParseUnary(out); }));
      out->node = Formula::Not(std::move(out->node));
      return Status::OK();
    }
    if (MatchWord("exists")) return ParseQuantified(/*forall=*/false, out);
    if (MatchWord("forall")) return ParseQuantified(/*forall=*/true, out);
    if (Match('(')) {
      TREEQ_RETURN_IF_ERROR(
          nesting_.Nest(pos_, out, [&] { return ParseFormula(out); }));
      if (!Match(')')) return Error("expected ')'");
      return Status::OK();
    }
    TREEQ_ASSIGN_OR_RETURN(out->node, ParseAtom());
    return Status::OK();
  }

  Result<std::unique_ptr<Formula>> ParseAtom() {
    TREEQ_ASSIGN_OR_RETURN(std::string name, ParseName());
    Skip();
    if (Peek() == '=') {
      ++pos_;
      TREEQ_ASSIGN_OR_RETURN(std::string rhs, ParseName());
      return Formula::Equals(name, rhs);
    }
    if (name == "Label") {
      if (!Match('(')) return Error("expected '('");
      TREEQ_ASSIGN_OR_RETURN(std::string label, ParseQuoted());
      if (!Match(',')) return Error("expected ','");
      TREEQ_ASSIGN_OR_RETURN(std::string v, ParseName());
      if (!Match(')')) return Error("expected ')'");
      return Formula::Label(label, v);
    }
    if (name.starts_with("Lab_")) {
      if (!Match('(')) return Error("expected '('");
      TREEQ_ASSIGN_OR_RETURN(std::string v, ParseName());
      if (!Match(')')) return Error("expected ')'");
      return Formula::Label(name.substr(4), v);
    }
    Result<Axis> axis = ParseAxis(name);
    if (!axis.ok()) return Error("unknown atom '" + name + "'");
    if (!Match('(')) return Error("expected '('");
    TREEQ_ASSIGN_OR_RETURN(std::string v0, ParseName());
    if (!Match(',')) return Error("expected ','");
    TREEQ_ASSIGN_OR_RETURN(std::string v1, ParseName());
    if (!Match(')')) return Error("expected ')'");
    return Formula::AxisAtom(axis.value(), v0, v1);
  }

  std::string_view input_;
  size_t pos_ = 0;
  NestingGuard nesting_;
};

}  // namespace

Result<std::unique_ptr<Formula>> ParseFo(std::string_view input) {
  return FoParser(input).Parse();
}

}  // namespace fo
}  // namespace treeq
