// The reference kernel: a fixed CPU workload that uses no treeq code, so
// no change to treeq changes its cost. It is shaped like tree query
// evaluation (an order-numbered tree in arrays, label scans, subtree
// intervals as bitsets, a hash join, short sorted names), so a host that
// slows the benchmark's requests (a busy hyperthread sibling, a shared
// cache under pressure) slows it by about as much. See ReferencePassNs().

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "perfbench.h"

namespace perfbench {
namespace {

constexpr int kNodes = 3000;
constexpr int kLabels = 8;

/// A random tree in first-child/next-sibling arrays, the same in every
/// run (a fixed seed, not the workload's).
struct RefTree {
  std::vector<int> first_child;
  std::vector<int> next_sibling;
  std::vector<uint8_t> label;
};

const RefTree& Shape() {
  static const RefTree tree = [] {
    RefTree t;
    t.first_child.assign(kNodes, -1);
    t.next_sibling.assign(kNodes, -1);
    t.label.resize(kNodes);
    std::vector<int> last_child(kNodes, -1);
    for (int v = 0; v < kNodes; ++v) {
      const uint64_t r = Mix(0x7265666572656e63ULL + static_cast<uint64_t>(v));
      t.label[static_cast<size_t>(v)] = static_cast<uint8_t>(r % kLabels);
      if (v == 0) continue;
      // Parents among the last 64 nodes: deep, bushy, like a catalog.
      const int p = std::max(0, v - 1 - static_cast<int>((r >> 8) % 64));
      const size_t pi = static_cast<size_t>(p);
      if (last_child[pi] < 0) {
        t.first_child[pi] = v;
      } else {
        t.next_sibling[static_cast<size_t>(last_child[pi])] = v;
      }
      last_child[pi] = v;
    }
    return t;
  }();
  return tree;
}

/// The pass's working memory, allocated once: the pass allocates
/// nothing, so its cost does not depend on the state of the heap the
/// benchmark's requests leave behind.
struct Scratch {
  std::vector<int> pre, size, order, stack;
  std::vector<uint64_t> bits;
  std::vector<uint64_t> keys;  // open-addressing hash table
  std::vector<uint32_t> counts;
  std::vector<std::array<char, 16>> names;
};

constexpr size_t kTableSize = 8192;  // a power of two above kNodes

/// One pass; returns a checksum so no step can be optimised away.
uint64_t Pass(const RefTree& t, Scratch* x) {
  const size_t n = t.label.size();
  // Pre-order numbers and subtree sizes by an explicit-stack walk.
  x->order.clear();
  x->stack.assign(1, 0);
  while (!x->stack.empty()) {
    const int v = x->stack.back();
    x->stack.pop_back();
    x->pre[static_cast<size_t>(v)] = static_cast<int>(x->order.size());
    x->order.push_back(v);
    for (int c = t.first_child[static_cast<size_t>(v)]; c >= 0;
         c = t.next_sibling[static_cast<size_t>(c)]) {
      x->stack.push_back(c);
    }
  }
  std::fill(x->size.begin(), x->size.end(), 1);
  for (size_t k = n; k-- > 1;) {
    const int v = x->order[k];
    for (int c = t.first_child[static_cast<size_t>(v)]; c >= 0;
         c = t.next_sibling[static_cast<size_t>(c)]) {
      x->size[static_cast<size_t>(v)] += x->size[static_cast<size_t>(c)];
    }
  }
  // Per label: the descendants of its nodes, as a bitset over pre-order.
  uint64_t sum = 0;
  for (int l = 0; l < kLabels; ++l) {
    std::fill(x->bits.begin(), x->bits.end(), 0);
    for (size_t v = 0; v < n; ++v) {
      if (t.label[v] != l) continue;
      const size_t lo = static_cast<size_t>(x->pre[v]) + 1;
      const size_t hi = static_cast<size_t>(x->pre[v] + x->size[v]);
      for (size_t p = lo; p < hi; ++p) {
        x->bits[p / 64] |= uint64_t{1} << (p % 64);
      }
    }
    for (uint64_t w : x->bits) {
      sum += static_cast<uint64_t>(__builtin_popcountll(w));
    }
  }
  // A hash join of (label, subtree size bucket) keys, linear probing.
  std::fill(x->keys.begin(), x->keys.end(), 0);
  std::fill(x->counts.begin(), x->counts.end(), 0);
  auto slot = [&](uint64_t key) {
    size_t h = static_cast<size_t>(key) & (kTableSize - 1);
    while (x->keys[h] != 0 && x->keys[h] != key) h = (h + 1) & (kTableSize - 1);
    return h;
  };
  for (size_t v = 0; v < n; ++v) {
    const uint64_t key =
        Mix(t.label[v] * 131u + static_cast<uint64_t>(x->size[v] % 17)) | 1;
    const size_t h = slot(key);
    x->keys[h] = key;
    ++x->counts[h];
  }
  for (size_t v = 0; v < n; v += 3) {
    const uint64_t key =
        Mix(t.label[v] * 131u + static_cast<uint64_t>(v % 17)) | 1;
    sum += x->counts[slot(key)];
  }
  // Short names, formatted and sorted.
  for (size_t k = 0; k < x->names.size(); ++k) {
    std::snprintf(x->names[k].data(), x->names[k].size(), "n%llu/%d",
                  static_cast<unsigned long long>(Mix(k) % 100000),
                  x->size[k * 4]);
  }
  std::sort(x->names.begin(), x->names.end(),
            [](const std::array<char, 16>& a, const std::array<char, 16>& b) {
              return std::strcmp(a.data(), b.data()) < 0;
            });
  return sum + static_cast<uint64_t>(x->names.front()[1]) +
         static_cast<uint64_t>(x->names.back()[1]);
}

}  // namespace

uint64_t ReferencePassNs() {
  static volatile uint64_t sink = 0;
  static Scratch scratch = [] {
    Scratch x;
    x.pre.resize(kNodes);
    x.size.resize(kNodes);
    x.order.reserve(kNodes);
    x.stack.reserve(kNodes);
    x.bits.resize((kNodes + 63) / 64);
    x.keys.resize(kTableSize);
    x.counts.resize(kTableSize);
    x.names.resize(kNodes / 4);
    return x;
  }();
  const RefTree& t = Shape();
  // The first pass brings the kernel's data back into the caches the
  // requests evicted; only the second is timed.
  sink = sink + Pass(t, &scratch);
  const uint64_t start = ThreadCpuNs();
  sink = sink + Pass(t, &scratch);
  return ThreadCpuNs() - start;
}

}  // namespace perfbench
