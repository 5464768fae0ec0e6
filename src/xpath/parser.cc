#include "xpath/parser.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <utility>

#include "util/nesting.h"

namespace treeq {
namespace xpath {
namespace {

using NestedPath = Nested<PathExpr>;
using NestedQual = Nested<Qualifier>;

class XPathParser {
 public:
  explicit XPathParser(std::string_view input) : input_(input) {}

  Result<std::unique_ptr<PathExpr>> Parse() {
    Skip();
    bool absolute = false;
    bool initial_descendant = false;
    if (Match("//")) {
      absolute = true;
      initial_descendant = true;
    } else if (Match("/")) {
      absolute = true;
    }
    NestedPath path;
    TREEQ_RETURN_IF_ERROR(ParseUnion(
        /*anchor_first_step=*/absolute && !initial_descendant, &path));
    if (initial_descendant) {
      TREEQ_RETURN_IF_ERROR(DescendantOrSelfThen(&path));
    }
    Skip();
    if (!Eof()) return Error("trailing input");
    return std::move(path.node);
  }

 private:
  bool Eof() const { return pos_ >= input_.size(); }
  char Peek() const { return Eof() ? '\0' : input_[pos_]; }

  void Skip() {
    while (!Eof() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos_;
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }

  /// Consumes `token` (after whitespace) if present.
  bool Match(std::string_view token) {
    Skip();
    if (input_.substr(pos_).starts_with(token)) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  /// Consumes a keyword: like Match but must not be followed by a name char.
  bool MatchWord(std::string_view word) {
    Skip();
    if (!input_.substr(pos_).starts_with(word)) return false;
    size_t end = pos_ + word.size();
    if (end < input_.size() && IsNameChar(input_[end])) return false;
    pos_ = end;
    return true;
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '+' || c == '*' || c == '#' || c == '@' ||
           c == '=';
  }

  static bool IsNameStart(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '#' || c == '@';
  }

  Result<std::string> ParseName() {
    Skip();
    if (Eof() || !IsNameStart(Peek())) return Error("expected a name");
    size_t start = pos_;
    while (!Eof() && IsNameChar(Peek())) ++pos_;
    return std::string(input_.substr(start, pos_ - start));
  }

  Result<std::string> ParseLabelOperand() {
    Skip();
    if (Peek() == '"') {
      ++pos_;
      size_t start = pos_;
      while (!Eof() && Peek() != '"') ++pos_;
      if (Eof()) return Error("unterminated string");
      std::string s(input_.substr(start, pos_ - start));
      ++pos_;
      return s;
    }
    return ParseName();
  }

  Status ParseUnion(bool anchor_first_step, NestedPath* out) {
    TREEQ_RETURN_IF_ERROR(ParseSeq(anchor_first_step, out));
    return ParseUnionTail(anchor_first_step, out);
  }

  /// The `| branch` operands that follow `out`, the union's first branch.
  Status ParseUnionTail(bool anchor_first_step, NestedPath* out) {
    while (Match("|")) {
      NestedPath right;
      TREEQ_RETURN_IF_ERROR(ParseSeq(anchor_first_step, &right));
      TREEQ_RETURN_IF_ERROR(nesting_.Chain(pos_, out, std::move(right),
                                           PathExpr::MakeUnion));
    }
    return Status::OK();
  }

  Status ParseSeq(bool anchor_first_step, NestedPath* out) {
    // A "//"-prefixed branch (e.g. inside "(//a | //b)"): treat as
    // descendant-or-self from the context.
    const bool descendant = Match("//");
    TREEQ_RETURN_IF_ERROR(ParseStep(anchor_first_step && !descendant, out));
    TREEQ_RETURN_IF_ERROR(ParseQualifiers(out));
    if (descendant) TREEQ_RETURN_IF_ERROR(DescendantOrSelfThen(out));
    return ParseSeqTail(out);
  }

  /// The `/step` and `//step` operands that follow `out`, a sequence's
  /// first step.
  Status ParseSeqTail(NestedPath* out) {
    for (;;) {
      const bool descendant_step = Match("//");
      if (!descendant_step && !Match("/")) return Status::OK();
      NestedPath right;
      TREEQ_RETURN_IF_ERROR(ParseStep(/*anchored=*/false, &right));
      TREEQ_RETURN_IF_ERROR(ParseQualifiers(&right));
      if (descendant_step) TREEQ_RETURN_IF_ERROR(DescendantOrSelfThen(&right));
      TREEQ_RETURN_IF_ERROR(nesting_.Chain(pos_, out, std::move(right),
                                           PathExpr::MakeSeq));
    }
  }

  /// `path` becomes descendant-or-self::* / path, the expansion of "//".
  Status DescendantOrSelfThen(NestedPath* path) {
    NestedPath self{PathExpr::MakeStep(Axis::kDescendantOrSelf), 0};
    TREEQ_RETURN_IF_ERROR(
        nesting_.Chain(pos_, &self, std::move(*path), PathExpr::MakeSeq));
    *path = std::move(self);
    return Status::OK();
  }

  // One step without its qualifiers: a node test, "." or a parenthesized
  // union. anchored: a leading "/" anchors the first step at the context
  // node, so a bare name test uses the self axis instead of child.
  Status ParseStep(bool anchored, NestedPath* out) {
    Skip();
    if (Match("(")) {
      TREEQ_RETURN_IF_ERROR(nesting_.Nest(
          pos_, out, [&] { return ParseUnion(anchored, out); }));
      if (!Match(")")) return Error("expected ')'");
      return Status::OK();
    }
    if (Match(".")) {
      out->node = PathExpr::MakeStep(Axis::kSelf);
      return Status::OK();
    }
    Axis axis = anchored ? Axis::kSelf : Axis::kChild;
    std::string name_test;
    if (Match("*")) {
      // child::* (or self::* when anchored)
    } else {
      TREEQ_ASSIGN_OR_RETURN(std::string first, ParseName());
      if (Match("::")) {
        Result<Axis> parsed = ParseAxis(first);
        if (!parsed.ok()) return Error("unknown axis '" + first + "'");
        axis = parsed.value();
        if (!Match("*")) {
          TREEQ_ASSIGN_OR_RETURN(name_test, ParseName());
        }
      } else {
        name_test = first;
      }
    }
    out->node = PathExpr::MakeStep(axis);
    if (!name_test.empty()) {
      out->node->qualifiers.push_back(Qualifier::MakeLabel(name_test));
    }
    return Status::OK();
  }

  /// Appends the bracketed qualifiers that follow `path` to it.
  Status ParseQualifiers(NestedPath* path) {
    while (Match("[")) {
      NestedQual q;
      TREEQ_RETURN_IF_ERROR(
          nesting_.Nest(pos_, &q, [&] { return ParseQualOr(&q); }));
      if (!Match("]")) return Error("expected ']'");
      path->node->qualifiers.push_back(std::move(q.node));
      path->levels = std::max(path->levels, q.levels);
    }
    return Status::OK();
  }

  Status ParseQualOr(NestedQual* out) {
    TREEQ_RETURN_IF_ERROR(ParseQualAnd(out));
    while (MatchWord("or")) {
      NestedQual right;
      TREEQ_RETURN_IF_ERROR(ParseQualAnd(&right));
      TREEQ_RETURN_IF_ERROR(nesting_.Chain(pos_, out, std::move(right),
                                           Qualifier::MakeOr));
    }
    return Status::OK();
  }

  Status ParseQualAnd(NestedQual* out) {
    TREEQ_RETURN_IF_ERROR(ParseQualPrim(out));
    while (MatchWord("and")) {
      NestedQual right;
      TREEQ_RETURN_IF_ERROR(ParseQualPrim(&right));
      TREEQ_RETURN_IF_ERROR(nesting_.Chain(pos_, out, std::move(right),
                                           Qualifier::MakeAnd));
    }
    return Status::OK();
  }

  Status ParseQualPrim(NestedQual* out) {
    Skip();
    // "not(q)" and "lab() = L"; without their parentheses, `not` and `lab`
    // are names that start a path.
    const size_t save = pos_;
    if (MatchWord("not") && Match("(")) {
      TREEQ_RETURN_IF_ERROR(
          nesting_.Nest(pos_, out, [&] { return ParseQualOr(out); }));
      if (!Match(")")) return Error("expected ')'");
      out->node = Qualifier::MakeNot(std::move(out->node));
      return Status::OK();
    }
    pos_ = save;
    if (MatchWord("lab") && Match("(") && Match(")") && Match("=")) {
      TREEQ_ASSIGN_OR_RETURN(std::string label, ParseLabelOperand());
      out->node = Qualifier::MakeLabel(std::move(label));
      return Status::OK();
    }
    pos_ = save;
    // A parenthesized Boolean expression, read once; its primitives
    // include paths. When a step operator, qualifier or union follows the
    // ')', the parentheses held one path, which continues from there. A
    // path sits one level below its qualifier node, parenthesized or not.
    NestedPath path;
    if (Match("(")) {
      TREEQ_RETURN_IF_ERROR(
          nesting_.Nest(pos_, out, [&] { return ParseQualOr(out); }));
      if (!Match(")")) return Error("expected ')'");
      Skip();
      if (Peek() != '/' && Peek() != '[' && Peek() != '|') {
        return Status::OK();
      }
      if (out->node->kind != Qualifier::Kind::kPath) {
        return Error("expected a path before '" + std::string(1, Peek()) +
                     "'");
      }
      path = {std::move(out->node->path), out->levels - 1};
      TREEQ_RETURN_IF_ERROR(nesting_.Nest(pos_, &path, [&] {
        TREEQ_RETURN_IF_ERROR(ParseQualifiers(&path));
        TREEQ_RETURN_IF_ERROR(ParseSeqTail(&path));
        return ParseUnionTail(/*anchor_first_step=*/false, &path);
      }));
    } else {  // an existential path
      TREEQ_RETURN_IF_ERROR(nesting_.Nest(pos_, &path, [&] {
        return ParseUnion(/*anchor_first_step=*/false, &path);
      }));
    }
    out->node = Qualifier::MakePath(std::move(path.node));
    out->levels = path.levels;
    return Status::OK();
  }

  std::string_view input_;
  size_t pos_ = 0;
  NestingGuard nesting_;
};

}  // namespace

Result<std::unique_ptr<PathExpr>> ParseXPath(std::string_view input) {
  return XPathParser(input).Parse();
}

}  // namespace xpath
}  // namespace treeq
