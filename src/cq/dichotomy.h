#ifndef TREEQ_CQ_DICHOTOMY_H_
#define TREEQ_CQ_DICHOTOMY_H_

#include <optional>
#include <vector>

#include "cq/ast.h"
#include "cq/x_property.h"
#include "tree/document.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file dichotomy.h
/// The tractability dichotomy for conjunctive queries over trees
/// (Theorem 6.8, [35]): a class CQ[F] of conjunctive queries over an axis
/// set F is polynomial-time iff some total order gives every relation in F
/// the X-underbar property — i.e. iff F fits (after inverse normalization)
/// inside one of
///   tau_1 = { Child+, Child* }                                  (<pre)
///   tau_2 = { Following }                                       (<post)
///   tau_3 = { Child, NextSibling, NextSibling*, NextSibling+ }  (<bflr)
/// and is NP-complete otherwise.

namespace treeq {
namespace cq {

/// How a signature is classified.
enum class SignatureClass {
  kTau1,    // evaluate with the X-property under <pre
  kTau2,    // ... under <post
  kTau3,    // ... under <bflr
  kNpHard,  // no order works: the NP-complete side of Theorem 6.8
};

const char* SignatureClassName(SignatureClass c);

/// Classifies an axis set (inverse axes are normalized first; Self is
/// always allowed).
SignatureClass ClassifySignature(const std::vector<Axis>& axes);

/// The order associated with a tractable class.
std::optional<TreeOrder> OrderForClass(SignatureClass c);

/// Evaluates a Boolean conjunctive query by the dichotomy: X-property
/// evaluation (Theorem 6.5) when the signature is tractable, backtracking
/// search otherwise. `used_tractable_path`, if non-null, reports which side
/// ran. The ExecContext bounds both branches: the NP-hard one is charged
/// per assignment tried, the tractable one per arc-consistency image step.
Result<bool> EvaluateBooleanDichotomy(
    const ConjunctiveQuery& query, const Document& doc,
    bool* used_tractable_path = nullptr,
    const ExecContext& exec = ExecContext::Unbounded());

}  // namespace cq
}  // namespace treeq

#endif  // TREEQ_CQ_DICHOTOMY_H_
