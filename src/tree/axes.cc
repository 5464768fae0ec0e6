#include "tree/axes.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"

namespace treeq {

Axis InverseAxis(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
      return Axis::kSelf;
    case Axis::kChild:
      return Axis::kParent;
    case Axis::kParent:
      return Axis::kChild;
    case Axis::kDescendant:
      return Axis::kAncestor;
    case Axis::kAncestor:
      return Axis::kDescendant;
    case Axis::kDescendantOrSelf:
      return Axis::kAncestorOrSelf;
    case Axis::kAncestorOrSelf:
      return Axis::kDescendantOrSelf;
    case Axis::kNextSibling:
      return Axis::kPrevSibling;
    case Axis::kPrevSibling:
      return Axis::kNextSibling;
    case Axis::kFollowingSibling:
      return Axis::kPrecedingSibling;
    case Axis::kPrecedingSibling:
      return Axis::kFollowingSibling;
    case Axis::kFollowingSiblingOrSelf:
      return Axis::kPrecedingSiblingOrSelf;
    case Axis::kPrecedingSiblingOrSelf:
      return Axis::kFollowingSiblingOrSelf;
    case Axis::kFollowing:
      return Axis::kPreceding;
    case Axis::kPreceding:
      return Axis::kFollowing;
    case Axis::kFirstChild:
      return Axis::kFirstChildInv;
    case Axis::kFirstChildInv:
      return Axis::kFirstChild;
  }
  TREEQ_CHECK(false);
  return Axis::kSelf;
}

const char* AxisName(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
      return "self";
    case Axis::kChild:
      return "child";
    case Axis::kParent:
      return "parent";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kAncestorOrSelf:
      return "ancestor-or-self";
    case Axis::kNextSibling:
      return "next-sibling";
    case Axis::kPrevSibling:
      return "prev-sibling";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
    case Axis::kFollowingSiblingOrSelf:
      return "following-sibling-or-self";
    case Axis::kPrecedingSiblingOrSelf:
      return "preceding-sibling-or-self";
    case Axis::kFollowing:
      return "following";
    case Axis::kPreceding:
      return "preceding";
    case Axis::kFirstChild:
      return "first-child";
    case Axis::kFirstChildInv:
      return "first-child-inv";
  }
  TREEQ_CHECK(false);
  return "";
}

Result<Axis> ParseAxis(std::string_view name) {
  struct Alias {
    const char* name;
    Axis axis;
  };
  static constexpr Alias kAliases[] = {
      {"self", Axis::kSelf},
      {"Self", Axis::kSelf},
      {"child", Axis::kChild},
      {"Child", Axis::kChild},
      {"parent", Axis::kParent},
      {"Parent", Axis::kParent},
      {"Child-", Axis::kParent},
      {"descendant", Axis::kDescendant},
      {"Descendant", Axis::kDescendant},
      {"Child+", Axis::kDescendant},
      {"ancestor", Axis::kAncestor},
      {"Ancestor", Axis::kAncestor},
      {"descendant-or-self", Axis::kDescendantOrSelf},
      {"Descendant-or-self", Axis::kDescendantOrSelf},
      {"Child*", Axis::kDescendantOrSelf},
      {"ancestor-or-self", Axis::kAncestorOrSelf},
      {"Ancestor-or-self", Axis::kAncestorOrSelf},
      {"next-sibling", Axis::kNextSibling},
      {"NextSibling", Axis::kNextSibling},
      {"prev-sibling", Axis::kPrevSibling},
      {"PrevSibling", Axis::kPrevSibling},
      {"NextSibling-", Axis::kPrevSibling},
      {"following-sibling", Axis::kFollowingSibling},
      {"Following-Sibling", Axis::kFollowingSibling},
      {"NextSibling+", Axis::kFollowingSibling},
      {"preceding-sibling", Axis::kPrecedingSibling},
      {"Preceding-Sibling", Axis::kPrecedingSibling},
      {"following-sibling-or-self", Axis::kFollowingSiblingOrSelf},
      {"NextSibling*", Axis::kFollowingSiblingOrSelf},
      {"preceding-sibling-or-self", Axis::kPrecedingSiblingOrSelf},
      {"following", Axis::kFollowing},
      {"Following", Axis::kFollowing},
      {"preceding", Axis::kPreceding},
      {"Preceding", Axis::kPreceding},
      {"first-child", Axis::kFirstChild},
      {"FirstChild", Axis::kFirstChild},
      {"first-child-inv", Axis::kFirstChildInv},
  };
  for (const Alias& a : kAliases) {
    if (name == a.name) return a.axis;
  }
  return Status::ParseError("unknown axis: " + std::string(name));
}

bool IsTransitiveAxis(Axis axis) {
  switch (axis) {
    case Axis::kDescendant:
    case Axis::kAncestor:
    case Axis::kDescendantOrSelf:
    case Axis::kAncestorOrSelf:
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling:
    case Axis::kFollowingSiblingOrSelf:
    case Axis::kPrecedingSiblingOrSelf:
    case Axis::kFollowing:
    case Axis::kPreceding:
      return true;
    default:
      return false;
  }
}

bool IsForwardAxis(Axis axis) {
  switch (axis) {
    case Axis::kSelf:
    case Axis::kChild:
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
    case Axis::kNextSibling:
    case Axis::kFollowingSibling:
    case Axis::kFollowingSiblingOrSelf:
    case Axis::kFollowing:
    case Axis::kFirstChild:
      return true;
    default:
      return false;
  }
}

bool AxisHolds(const Tree& tree, const TreeOrders& orders, Axis axis, NodeId u,
               NodeId v) {
  switch (axis) {
    case Axis::kSelf:
      return u == v;
    case Axis::kChild:
      return tree.parent(v) == u;
    case Axis::kParent:
      return tree.parent(u) == v;
    case Axis::kDescendant:
      return orders.IsProperAncestor(u, v);
    case Axis::kAncestor:
      return orders.IsProperAncestor(v, u);
    case Axis::kDescendantOrSelf:
      return u == v || orders.IsProperAncestor(u, v);
    case Axis::kAncestorOrSelf:
      return u == v || orders.IsProperAncestor(v, u);
    case Axis::kNextSibling:
      return tree.next_sibling(u) == v;
    case Axis::kPrevSibling:
      return tree.next_sibling(v) == u;
    case Axis::kFollowingSibling:
      return u != v && tree.parent(u) == tree.parent(v) &&
             tree.parent(u) != kNullNode && u < v;
    case Axis::kPrecedingSibling:
      return AxisHolds(tree, orders, Axis::kFollowingSibling, v, u);
    case Axis::kFollowingSiblingOrSelf:
      return u == v ||
             AxisHolds(tree, orders, Axis::kFollowingSibling, u, v);
    case Axis::kPrecedingSiblingOrSelf:
      return u == v ||
             AxisHolds(tree, orders, Axis::kFollowingSibling, v, u);
    case Axis::kFollowing:
      return orders.IsFollowing(u, v);
    case Axis::kPreceding:
      return orders.IsFollowing(v, u);
    case Axis::kFirstChild:
      return tree.first_child(u) == v;
    case Axis::kFirstChildInv:
      return tree.first_child(v) == u;
  }
  TREEQ_CHECK(false);
  return false;
}

namespace {

// Marks descendants of `from` nodes. Subtrees are contiguous id ranges, so
// the image is a union of word-filled ranges. Members arrive in id (= pre)
// order, and ranges nested inside an already-covered subtree are skipped
// (subtree ranges form a laminar family, so fills never overlap).
void DescendantImage(const TreeOrders& orders, const NodeSet& from,
                     bool include_self, NodeSet* to) {
  int covered = 0;  // ids below this are already marked
  from.ForEachMember([&](NodeId u) {
    const int end = orders.SubtreeEndPre(u);
    if (end <= covered) return;
    to->InsertRange(u + (include_self ? 0 : 1), end);
    covered = end;
  });
}

// Marks ancestors of `from` nodes by walking parent chains, stopping at the
// first node already marked (its ancestors are marked too): O(|from| +
// |image|) instead of a full post-order pass.
void AncestorImage(const Tree& tree, const NodeSet& from, bool include_self,
                   NodeSet* to) {
  from.ForEachMember([&](NodeId u) {
    for (NodeId p = tree.parent(u); p != kNullNode && !to->Contains(p);
         p = tree.parent(p)) {
      to->Insert(p);
    }
  });
  if (include_self) to->UnionWith(from);
}

// Marks the forward (or backward) sibling chain of every member, with the
// same early-exit discipline as AncestorImage: a marked sibling implies the
// rest of its chain is marked.
void SiblingChainImage(const Tree& tree, const NodeSet& from, bool forward,
                       bool include_self, NodeSet* to) {
  from.ForEachMember([&](NodeId u) {
    if (forward) {
      for (NodeId s = tree.next_sibling(u);
           s != kNullNode && !to->Contains(s); s = tree.next_sibling(s)) {
        to->Insert(s);
      }
    } else {
      for (NodeId s = tree.prev_sibling(u);
           s != kNullNode && !to->Contains(s); s = tree.prev_sibling(s)) {
        to->Insert(s);
      }
    }
  });
  if (include_self) to->UnionWith(from);
}

// Siblings include the root (a one-element chain); following-sibling of the
// root is empty, as required, because its next_sibling link is null.

}  // namespace

void AxisImage(const Tree& tree, const TreeOrders& orders, Axis axis,
               const NodeSet& from, NodeSet* to) {
  const int n = tree.num_nodes();
  TREEQ_CHECK(from.universe() == n && to->universe() == n);
  to->Clear();
  // Every kernel makes at least one skip-scan pass over `from`'s words.
  TREEQ_OBS_COUNT("axes.words_scanned", from.num_words());
  switch (axis) {
    case Axis::kSelf:
      *to = from;
      return;
    case Axis::kChild:
      from.ForEachMember([&](NodeId u) {
        for (NodeId c = tree.first_child(u); c != kNullNode;
             c = tree.next_sibling(c)) {
          to->Insert(c);
        }
      });
      return;
    case Axis::kParent:
      from.ForEachMember([&](NodeId u) {
        if (tree.parent(u) != kNullNode) to->Insert(tree.parent(u));
      });
      return;
    case Axis::kDescendant:
      DescendantImage(orders, from, /*include_self=*/false, to);
      return;
    case Axis::kDescendantOrSelf:
      DescendantImage(orders, from, /*include_self=*/true, to);
      return;
    case Axis::kAncestor:
      AncestorImage(tree, from, /*include_self=*/false, to);
      return;
    case Axis::kAncestorOrSelf:
      AncestorImage(tree, from, /*include_self=*/true, to);
      return;
    case Axis::kNextSibling:
      from.ForEachMember([&](NodeId u) {
        if (tree.next_sibling(u) != kNullNode) {
          to->Insert(tree.next_sibling(u));
        }
      });
      return;
    case Axis::kPrevSibling:
      from.ForEachMember([&](NodeId u) {
        if (tree.prev_sibling(u) != kNullNode) {
          to->Insert(tree.prev_sibling(u));
        }
      });
      return;
    case Axis::kFollowingSibling:
      SiblingChainImage(tree, from, /*forward=*/true, /*include_self=*/false,
                        to);
      return;
    case Axis::kPrecedingSibling:
      SiblingChainImage(tree, from, /*forward=*/false, /*include_self=*/false,
                        to);
      return;
    case Axis::kFollowingSiblingOrSelf:
      SiblingChainImage(tree, from, /*forward=*/true, /*include_self=*/true,
                        to);
      return;
    case Axis::kPrecedingSiblingOrSelf:
      SiblingChainImage(tree, from, /*forward=*/false, /*include_self=*/true,
                        to);
      return;
    case Axis::kFollowing: {
      if (from.empty()) return;
      // Members arrive in id (= pre) order; once u >= threshold no later
      // member's subtree can end earlier, so the scan stops at the first
      // few set bits.
      int threshold = n;  // id from which nodes are in the image
      from.ForEachMemberWhile([&](NodeId u) {
        if (u >= threshold) return false;
        threshold = std::min(threshold, orders.SubtreeEndPre(u));
        return true;
      });
      to->InsertRange(threshold, n);
      return;
    }
    case Axis::kPreceding: {
      if (from.empty()) return;
      // The image is determined by the last member m: ids [0, m) minus the
      // proper ancestors of m.
      const NodeId m = from.LastMember();
      to->InsertRange(0, m);
      for (NodeId p = tree.parent(m); p != kNullNode; p = tree.parent(p)) {
        to->Erase(p);
      }
      return;
    }
    case Axis::kFirstChild:
      from.ForEachMember([&](NodeId u) {
        if (tree.first_child(u) != kNullNode) {
          to->Insert(tree.first_child(u));
        }
      });
      return;
    case Axis::kFirstChildInv:
      from.ForEachMember([&](NodeId u) {
        if (tree.prev_sibling(u) == kNullNode &&
            tree.parent(u) != kNullNode) {
          to->Insert(tree.parent(u));
        }
      });
      return;
  }
  TREEQ_CHECK(false);
}

bool AxisImageMemoized(const Tree& tree, const TreeOrders& orders, Axis axis,
                       const NodeSet& from, NodeSet* to, AxisImageMemo* memo) {
  if (memo != nullptr && memo->Lookup(axis, from, to)) return true;
  AxisImage(tree, orders, axis, from, to);
  if (memo != nullptr) memo->Store(axis, from, *to);
  return false;
}

std::vector<std::pair<NodeId, NodeId>> MaterializeAxis(
    const Tree& tree, const TreeOrders& orders, Axis axis) {
  std::vector<std::pair<NodeId, NodeId>> out;
  const int n = tree.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (AxisHolds(tree, orders, axis, u, v)) out.emplace_back(u, v);
    }
  }
  return out;
}

}  // namespace treeq
