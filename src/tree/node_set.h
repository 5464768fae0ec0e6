#ifndef TREEQ_TREE_NODE_SET_H_
#define TREEQ_TREE_NODE_SET_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "tree/tree.h"
#include "util/status.h"

/// \file node_set.h
/// `NodeSet`: a set of nodes of one tree, stored as packed 64-bit words.
/// This is the substrate of the Section-3 linear-time building blocks; all
/// set algebra (union, intersection, complement, and-not) is word-parallel,
/// and members are enumerated by skip-scanning set bits with
/// `std::countr_zero` instead of probing every node. Sizes are maintained
/// with `std::popcount`.
///
/// Invariant: bits at positions >= universe() in the last word are always
/// zero ("tail masking"), so `operator==` is a plain word compare and
/// `Complement` stays closed over the universe.

namespace treeq {

class NodeSet {
 public:
  NodeSet() = default;
  explicit NodeSet(int universe)
      : words_(NumWordsFor(universe), 0), universe_(universe) {}

  int universe() const { return universe_; }
  int size() const { return count_; }
  bool empty() const { return count_ == 0; }

  bool Contains(NodeId n) const {
    return (words_[WordOf(n)] >> BitOf(n)) & uint64_t{1};
  }

  void Insert(NodeId n) {
    uint64_t& w = words_[WordOf(n)];
    const uint64_t mask = uint64_t{1} << BitOf(n);
    count_ += static_cast<int>(~w >> BitOf(n) & 1);
    w |= mask;
  }
  void Erase(NodeId n) {
    uint64_t& w = words_[WordOf(n)];
    count_ -= static_cast<int>(w >> BitOf(n) & 1);
    w &= ~(uint64_t{1} << BitOf(n));
  }
  void Clear() {
    std::fill(words_.begin(), words_.end(), 0);
    count_ = 0;
  }

  /// In-place word-parallel algebra with `other` (same universe).
  void UnionWith(const NodeSet& other);
  void IntersectWith(const NodeSet& other);
  /// this \ other (set difference), one pass of `a &= ~b`.
  void AndNotWith(const NodeSet& other);
  /// In-place complement relative to the universe (tail bits stay zero).
  void Complement();

  /// Sets every node in [begin, end) — a word-fill, used by the subtree /
  /// following kernels that mark contiguous pre-rank ranges.
  void InsertRange(int begin, int end);

  bool operator==(const NodeSet& other) const {
    return universe_ == other.universe_ && words_ == other.words_;
  }

  /// Calls fn(NodeId) for each member in increasing order, skipping over
  /// zero words and jumping between set bits with countr_zero.
  template <typename Fn>
  void ForEachMember(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        fn(static_cast<NodeId>(wi * 64 + static_cast<size_t>(bit)));
        w &= w - 1;  // clear lowest set bit
      }
    }
  }

  /// Like ForEachMember but stops as soon as fn returns false.
  template <typename Fn>
  void ForEachMemberWhile(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        if (!fn(static_cast<NodeId>(wi * 64 + static_cast<size_t>(bit)))) {
          return;
        }
        w &= w - 1;
      }
    }
  }

  /// Like ForEachMember but only over members in [begin, end): touches the
  /// O((end - begin) / 64 + 1) words of the range, not the whole set.
  template <typename Fn>
  void ForEachMemberInRange(int begin, int end, Fn&& fn) const {
    if (begin >= end) return;
    const size_t first = WordOf(begin);
    const size_t last = WordOf(end - 1);
    for (size_t wi = first; wi <= last; ++wi) {
      uint64_t w = words_[wi];
      if (wi == first) w &= ~uint64_t{0} << BitOf(begin);
      if (wi == last && BitOf(end - 1) != 63) {
        w &= (uint64_t{1} << (BitOf(end - 1) + 1)) - 1;
      }
      while (w != 0) {
        fn(static_cast<NodeId>(wi * 64 +
                               static_cast<size_t>(std::countr_zero(w))));
        w &= w - 1;
      }
    }
  }

  /// Smallest / largest member, or kNullNode if empty. O(words).
  NodeId FirstMember() const;
  NodeId LastMember() const;

  /// Members in increasing node-id order.
  std::vector<NodeId> ToVector() const;

  static NodeSet FromVector(int universe, const std::vector<NodeId>& nodes);

  /// The full universe / a singleton.
  static NodeSet All(int universe);
  static NodeSet Singleton(int universe, NodeId n);

  /// Number of 64-bit words backing the set (for the obs word counters and
  /// the kernel microbenchmarks).
  int num_words() const { return static_cast<int>(words_.size()); }

  /// Read-only view of the backing words (tail bits beyond universe() are
  /// guaranteed zero). The evaluation cache fingerprints sets from this
  /// view instead of re-enumerating members bit by bit.
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  static int NumWordsFor(int universe) { return (universe + 63) / 64; }
  static size_t WordOf(NodeId n) { return static_cast<size_t>(n) >> 6; }
  static int BitOf(NodeId n) { return static_cast<int>(n) & 63; }

  /// Mask selecting the in-universe bits of the last word (all ones when the
  /// universe is a multiple of 64).
  uint64_t TailMask() const {
    const int rem = universe_ & 63;
    return rem == 0 ? ~uint64_t{0} : (uint64_t{1} << rem) - 1;
  }

  std::vector<uint64_t> words_;
  int universe_ = 0;
  int count_ = 0;
};

}  // namespace treeq

#endif  // TREEQ_TREE_NODE_SET_H_
