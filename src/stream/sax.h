#ifndef TREEQ_STREAM_SAX_H_
#define TREEQ_STREAM_SAX_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "tree/tree.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file sax.h
/// SAX-style event streams (Section 5): a document is consumed as a
/// left-to-right sequence of start/end element events — "the order in which
/// the opening resp. closing tag of each node is seen when reading the
/// corresponding XML document". Streaming consumers never see the tree.
///
/// Two producers: WalkTree visits a materialized tree through its
/// first-child / next-sibling / parent links with no per-node allocation
/// (the streaming engine's path), and StreamXmlText scans XML text with
/// only the open-tag stack. StreamTree turns a walk into SaxEvents.

namespace treeq {
namespace stream {

/// One event. `labels` carries the node's labels on kStartElement (empty on
/// kEndElement); `node` identifies the element for result reporting.
struct SaxEvent {
  enum class Kind { kStartElement, kEndElement };
  Kind kind = Kind::kStartElement;
  std::vector<std::string> labels;
  NodeId node = kNullNode;
};

/// Callback-based consumption; events are produced in document order.
using SaxHandler = std::function<void(const SaxEvent&)>;

/// Walks `tree` in document order: on_start(v) on entering v, on_end(v) on
/// leaving it. Charges `exec` one unit before each event and stops —
/// mid-document — at the first charge that trips, returning its status.
/// Iterative and allocation-free, so safe for deep documents.
template <typename OnStart, typename OnEnd>
Status WalkTree(const Tree& tree, const ExecContext& exec, OnStart&& on_start,
                OnEnd&& on_end) {
  const NodeId root = tree.root();
  NodeId v = root;
  for (;;) {
    TREEQ_RETURN_IF_ERROR(exec.Charge(1));
    on_start(v);
    if (tree.first_child(v) != kNullNode) {
      v = tree.first_child(v);
      continue;
    }
    for (;;) {
      TREEQ_RETURN_IF_ERROR(exec.Charge(1));
      on_end(v);
      if (v == root) return Status::OK();
      if (tree.next_sibling(v) != kNullNode) {
        v = tree.next_sibling(v);
        break;
      }
      v = tree.parent(v);
    }
  }
}

/// Streams a materialized tree as SaxEvents (label names copied per start).
void StreamTree(const Tree& tree, const SaxHandler& handler);

/// Materialized event list (for tests).
std::vector<SaxEvent> ToSaxEvents(const Tree& tree);

/// Streams XML text WITHOUT building a tree: the scanner keeps only the
/// open-element stack (tag names for well-formedness checking), i.e.
/// O(depth) memory. Supports the same XML subset as tree/xml.h; text
/// content is skipped. Nodes are numbered in document order.
Status StreamXmlText(std::string_view input, const SaxHandler& handler);

}  // namespace stream
}  // namespace treeq

#endif  // TREEQ_STREAM_SAX_H_
