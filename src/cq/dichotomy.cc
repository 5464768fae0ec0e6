#include "cq/dichotomy.h"

#include "cq/naive.h"

namespace treeq {
namespace cq {

const char* SignatureClassName(SignatureClass c) {
  switch (c) {
    case SignatureClass::kTau1:
      return "tau1 (<pre)";
    case SignatureClass::kTau2:
      return "tau2 (<post)";
    case SignatureClass::kTau3:
      return "tau3 (<bflr)";
    case SignatureClass::kNpHard:
      return "NP-hard";
  }
  return "";
}

SignatureClass ClassifySignature(const std::vector<Axis>& axes) {
  // Normalize inverses to their base axes for classification.
  auto canonical = [](Axis a) {
    switch (a) {
      case Axis::kParent:
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf:
      case Axis::kPrevSibling:
      case Axis::kPrecedingSibling:
      case Axis::kPrecedingSiblingOrSelf:
      case Axis::kPreceding:
      case Axis::kFirstChildInv:
        return InverseAxis(a);
      default:
        return a;
    }
  };
  for (TreeOrder order :
       {TreeOrder::kPre, TreeOrder::kPost, TreeOrder::kBflr}) {
    bool all = true;
    for (Axis a : axes) {
      if (!XPropertyHolds(canonical(a), order)) {
        all = false;
        break;
      }
    }
    if (all) {
      switch (order) {
        case TreeOrder::kPre:
          return SignatureClass::kTau1;
        case TreeOrder::kPost:
          return SignatureClass::kTau2;
        case TreeOrder::kBflr:
          return SignatureClass::kTau3;
      }
    }
  }
  return SignatureClass::kNpHard;
}

std::optional<TreeOrder> OrderForClass(SignatureClass c) {
  switch (c) {
    case SignatureClass::kTau1:
      return TreeOrder::kPre;
    case SignatureClass::kTau2:
      return TreeOrder::kPost;
    case SignatureClass::kTau3:
      return TreeOrder::kBflr;
    case SignatureClass::kNpHard:
      return std::nullopt;
  }
  return std::nullopt;
}

Result<bool> EvaluateBooleanDichotomy(const ConjunctiveQuery& query,
                                      const Document& doc,
                                      bool* used_tractable_path,
                                      const ExecContext& exec) {
  ConjunctiveQuery normalized = query;
  normalized.NormalizeInverseAxes();
  SignatureClass c = ClassifySignature(normalized.AxesUsed());
  std::optional<TreeOrder> order = OrderForClass(c);
  if (order.has_value()) {
    if (used_tractable_path != nullptr) *used_tractable_path = true;
    TREEQ_ASSIGN_OR_RETURN(
        XEvalResult result,
        EvaluateXProperty(normalized, doc, *order, AcImplementation::kDirect,
                          exec));
    return result.satisfiable;
  }
  if (used_tractable_path != nullptr) *used_tractable_path = false;
  return NaiveSatisfiableCq(normalized, doc, /*stats=*/nullptr, exec);
}

}  // namespace cq
}  // namespace treeq
