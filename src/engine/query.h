#ifndef TREEQ_ENGINE_QUERY_H_
#define TREEQ_ENGINE_QUERY_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "cq/ast.h"
#include "query/parse.h"
#include "tree/node_set.h"

/// \file query.h
/// The unified result type of every treeq query execution. Before this
/// header, the engine exposed three result shapes — a NodeSet for
/// node-selecting languages, a TupleSet for k-ary CQs, and a bool (plus an
/// `is_boolean` flag) for sentences — spread across parallel fields that
/// were all populated-or-garbage. `treeq::QueryResult` collapses them into
/// one tagged variant: exactly one of the three shapes is held, accessors
/// check the tag, and execution metadata (engine route, degradation flag,
/// route rationale and cost) rides alongside.
///
/// Both `engine::Plan::Execute` and `engine::Executor::Submit` return this
/// type.

namespace treeq {

/// Result tuples of a k-ary query (same type as cq::TupleSet).
using TupleSet = std::vector<std::vector<NodeId>>;

/// The answer of one (plan, document) execution.
struct QueryResult {
  Language language = Language::kXPath;

  /// True when the router sent a budgeted request to the streaming
  /// fallback instead of the set-at-a-time evaluator (graceful
  /// degradation).
  bool degraded = false;

  /// The evaluator that produced this answer ("xpath.set_at_a_time",
  /// "xpath.stream", "cq.x_property", ...); a string literal.
  const char* engine = "";

  /// Why the router picked `engine` (one line, e.g.
  /// "cq.twigstack cost=52 (native xpath.set_at_a_time cost=804)";
  /// "forced: <engine>" for a forced route). Empty on the fault-injected
  /// fallback route. A cache hit replays the stored result's rationale.
  std::string route_rationale;
  /// The router's predicted cost for `engine` (the score the rationale
  /// quotes, plan/route.h), in estimated visits.
  uint64_t route_cost = 0;

  /// The answer itself: a NodeSet (kXPath, kDatalog), a TupleSet (k-ary
  /// kCq), or a bool (Boolean kCq, kFo sentences).
  std::variant<NodeSet, TupleSet, bool> value;

  bool is_boolean() const { return std::holds_alternative<bool>(value); }
  bool is_nodes() const { return std::holds_alternative<NodeSet>(value); }
  bool is_tuples() const { return std::holds_alternative<TupleSet>(value); }

  /// Shape accessors. Calling one that does not match the held alternative
  /// is a programmer error (std::get throws std::bad_variant_access).
  bool boolean() const { return std::get<bool>(value); }
  const NodeSet& nodes() const { return std::get<NodeSet>(value); }
  NodeSet& nodes() { return std::get<NodeSet>(value); }
  const TupleSet& tuples() const { return std::get<TupleSet>(value); }
  TupleSet& tuples() { return std::get<TupleSet>(value); }

  /// Uniform "how much did this select" accessor for logging/benches:
  /// |nodes|, |tuples|, or 0/1 for a Boolean answer.
  size_t cardinality() const {
    if (is_boolean()) return boolean() ? 1 : 0;
    if (is_tuples()) return tuples().size();
    return static_cast<size_t>(nodes().size());
  }
};

}  // namespace treeq

#endif  // TREEQ_ENGINE_QUERY_H_
