#include "tree/label_index.h"

#include "obs/obs.h"

namespace treeq {

LabelIndex::LabelIndex(const Tree& tree, const TreeOrders& orders)
    : universe_(tree.num_nodes()),
      items_(static_cast<size_t>(tree.label_table().size())),
      sets_(items_.size()) {
  TREEQ_OBS_INC("labelindex.builds");
  // Ids are pre ranks, so walking them in order makes every per-label
  // stream come out sorted with no per-label sort.
  for (NodeId v = 0; v < orders.num_nodes(); ++v) {
    for (LabelId label : tree.labels(v)) {
      items_[static_cast<size_t>(label)].push_back(
          JoinItem{v, orders.SubtreeEndPre(v), orders.depth[v], v});
    }
  }
}

const std::vector<JoinItem>& LabelIndex::Items(LabelId label) const {
  static const std::vector<JoinItem> kEmpty;
  if (!InRange(label)) return kEmpty;
  TREEQ_OBS_INC("labelindex.hits");
  return items_[static_cast<size_t>(label)];
}

const NodeSet& LabelIndex::Set(LabelId label) const {
  std::lock_guard<std::mutex> lock(sets_mu_);
  if (!InRange(label)) {
    if (empty_set_ == nullptr) {
      empty_set_ = std::make_unique<NodeSet>(universe_);
    }
    return *empty_set_;
  }
  std::unique_ptr<NodeSet>& slot = sets_[static_cast<size_t>(label)];
  if (slot == nullptr) {
    auto set = std::make_unique<NodeSet>(universe_);
    for (const JoinItem& item : items_[static_cast<size_t>(label)]) {
      set->Insert(item.node);
    }
    slot = std::move(set);
  }
  TREEQ_OBS_INC("labelindex.hits");
  return *slot;
}

}  // namespace treeq
