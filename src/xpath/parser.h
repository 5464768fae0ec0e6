#ifndef TREEQ_XPATH_PARSER_H_
#define TREEQ_XPATH_PARSER_H_

#include <memory>
#include <string_view>

#include "util/status.h"
#include "xpath/ast.h"

/// \file parser.h
/// Concrete syntax for Core XPath. The abstract grammar of the paper plus
/// standard XPath sugar:
///
///   /catalog/product[reviews/review]//emph | //para
///   descendant::*[lab() = "a" and not(following::*[lab() = "b"])]
///
/// Rules:
///   - `axis::name` is step axis[lab() = name]; `axis::*` is a bare axis
///     step. Axis names are those of ParseAxis ("child", "descendant",
///     "parent", "ancestor", "following-sibling", ..., and the paper's
///     "Child+", "NextSibling*", ... aliases).
///   - a bare `name` means child::name; `*` means child::*; `.` means
///     self::*.
///   - `p1//p2` abbreviates p1/descendant-or-self::*/p2.
///   - A leading `/` anchors the first step at the context node itself
///     (so "/catalog/product" matches a root labeled catalog); a leading
///     `//` abbreviates descendant-or-self::*/....
///   - Qualifiers: `[q]` with q ::= path | lab() = L | q and q | q or q |
///     not(q) | (q); `(p | p)` parenthesizes path unions. A `(q)` that a
///     `/`, `//`, `[` or `|` follows holds one path, which continues there.
///   - Nesting deeper than kMaxNesting levels (util/nesting.h) is a
///     ParseError.
///
/// Unary queries are evaluated from the root (Section 3); the parser itself
/// is context-agnostic.

namespace treeq {
namespace xpath {

/// Parses a Core XPath expression.
Result<std::unique_ptr<PathExpr>> ParseXPath(std::string_view input);

}  // namespace xpath
}  // namespace treeq

#endif  // TREEQ_XPATH_PARSER_H_
