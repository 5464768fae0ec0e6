#ifndef TREEQ_FO_PARSER_H_
#define TREEQ_FO_PARSER_H_

#include <memory>
#include <string_view>

#include "fo/ast.h"
#include "util/status.h"

/// \file parser.h
/// Text syntax for FO formulas over trees:
///
///   exists x . exists y . (Child(x, y) and (Lab_a(y) or Lab_b(y)))
///   forall x . not Lab_c(x)
///   exists x . exists y . Child+(x, y) and x = x
///
/// Quantifiers bind as far right as possible ("dot notation"); `and` binds
/// tighter than `or`; `not` applies to the following unary formula. Atom
/// names follow the conjunctive-query parser: any ParseAxis name is a
/// binary axis atom, Lab_<l>(v) / Label("l", v) are label atoms, `v = w`
/// is equality. `%`/`#` start comments. Nesting deeper than kMaxNesting
/// levels (util/nesting.h) is a ParseError.

namespace treeq {
namespace fo {

Result<std::unique_ptr<Formula>> ParseFo(std::string_view input);

}  // namespace fo
}  // namespace treeq

#endif  // TREEQ_FO_PARSER_H_
