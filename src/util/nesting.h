#ifndef TREEQ_UTIL_NESTING_H_
#define TREEQ_UTIL_NESTING_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "util/status.h"

/// \file nesting.h
/// The one depth bound of the recursive-descent query parsers (XPath and
/// FO). Every pass after parsing (lowering, rewriting, evaluation,
/// printing, the AST destructors) recurses over the AST, so the parsers
/// refuse an expression nested deeper than the bound instead of building
/// it. The CQ and datalog grammars are flat and need no bound.

namespace treeq {

/// The most nesting levels a query may have. A query's nesting is the
/// height of its parse tree counted in levels: each binary `/`, `//`, `|`,
/// `and` or `or` node is one level, and so is each parenthesis, qualifier
/// bracket, path tested by a qualifier, `not` and quantifier; steps, label
/// tests and atoms are none. 1,024 admits the deepest query the test suite
/// accepts (1,000 nested FO quantifiers).
inline constexpr int kMaxNesting = 1024;

/// A parsed subtree and its height in nesting levels. The recursive parse
/// functions fill a Nested out-parameter and return a Status rather than a
/// Result: each level then costs fewer stack bytes, which the kMaxNesting
/// deep queries need in sanitizer builds.
template <typename Node>
struct Nested {
  std::unique_ptr<Node> node;
  int levels = 0;
};

/// Depth accounting for one parse. Past kMaxNesting both operations fail
/// with the ParseError "expression nesting deeper than 1024 at offset <N>".
class NestingGuard {
 public:
  /// Runs `parse`, which fills `*out` with the inside of one nested
  /// construct and returns its Status, one level down; `*out`'s height
  /// gains the construct's level. Bounds the parser's own recursion, which
  /// only nested constructs deepen.
  template <typename Node, typename Parse>
  Status Nest(size_t offset, Nested<Node>* out, Parse parse) {
    TREEQ_RETURN_IF_ERROR(Check(1, offset));
    ++open_;
    Status status = parse();
    --open_;
    ++out->levels;
    return status;
  }

  /// Makes `join(left, right)` the new left operand of a left-deep chain
  /// (`a/b/c`, `p and q and r`), one level above its taller operand.
  template <typename Node, typename Join>
  Status Chain(size_t offset, Nested<Node>* left, Nested<Node>&& right,
               Join join) const {
    left->node = join(std::move(left->node), std::move(right.node));
    left->levels = 1 + std::max(left->levels, right.levels);
    return Check(left->levels, offset);
  }

 private:
  /// A subtree `levels` tall below the open constructs must fit the bound.
  Status Check(int levels, size_t offset) const {
    if (open_ + levels <= kMaxNesting) return Status::OK();
    return Status::ParseError("expression nesting deeper than " +
                              std::to_string(kMaxNesting) + " at offset " +
                              std::to_string(offset));
  }

  int open_ = 0;  // nested constructs being parsed
};

}  // namespace treeq

#endif  // TREEQ_UTIL_NESTING_H_
