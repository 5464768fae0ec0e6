// Selective dissemination of information (the paper's streaming motivation,
// Section 5 / [3, 16]): a broker matches a stream of XML documents against
// a subscription written in XPath, holding only O(depth * |query|) state
// per document — it never builds trees.
//
// The subscription below uses a backward axis; ToForwardXPath (Theorem 5.1
// + [62]) rewrites it into a forward query the streaming matcher accepts.

#include <cstdio>
#include <string>
#include <vector>

#include "stream/sax.h"
#include "stream/stream_eval.h"
#include "xpath/ast.h"
#include "xpath/parser.h"
#include "xpath/to_forward.h"

namespace {

const char* kDocuments[] = {
    // 1: a matching order (contains a rush line item for SKU-7).
    R"(<order id="1"><customer/><items>
         <item sku="SKU-7"><rush/></item>
         <item sku="SKU-9"/></items></order>)",
    // 2: SKU-7 but not rush.
    R"(<order id="2"><items><item sku="SKU-7"/></items></order>)",
    // 3: rush, but a different SKU.
    R"(<order id="3"><items><item sku="SKU-1"><rush/></item></items></order>)",
    // 4: rush SKU-7 deep inside a gift bundle.
    R"(<order id="4"><items><bundle><item sku="SKU-7"><gift/><rush/></item>
       </bundle></items></order>)",
};

}  // namespace

int main() {
  // The subscription, written naturally with a backward axis:
  // rush elements whose parent item sells SKU-7.
  const char* kSubscription = "//rush/parent::item[lab() = \"@sku=SKU-7\"]";
  treeq::Result<std::unique_ptr<treeq::xpath::PathExpr>> query =
      treeq::xpath::ParseXPath(kSubscription);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("subscription:   %s\n", kSubscription);

  treeq::Result<std::unique_ptr<treeq::xpath::PathExpr>> forward =
      treeq::xpath::ToForwardXPath(*query.value());
  if (!forward.ok()) {
    std::fprintf(stderr, "%s\n", forward.status().ToString().c_str());
    return 1;
  }
  std::printf("forward form:   %s\n\n",
              treeq::xpath::ToString(*forward.value()).c_str());

  treeq::Result<treeq::stream::StreamProgram> program =
      treeq::stream::StreamProgram::Compile(*forward.value());
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }
  for (const char* doc : kDocuments) {
    treeq::stream::StreamMatcher matcher(program.value());
    treeq::Status streamed = treeq::stream::StreamXmlText(
        doc, [&matcher](const treeq::stream::SaxEvent& e) {
          matcher.OnEvent(e);
        });
    if (!streamed.ok()) {
      std::fprintf(stderr, "%s\n", streamed.ToString().c_str());
      return 1;
    }
    const treeq::stream::StreamStats& stats = matcher.stats();
    std::printf("document %.30s...  %s  (peak state: %zu frames x %zu B)\n",
                doc, matcher.Matches() ? "MATCH   " : "no match",
                stats.peak_frames, stats.frame_bytes);
  }
  return 0;
}
