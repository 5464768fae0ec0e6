// Quickstart: parse a document, run the main query engines, print results.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build && ./build/examples/quickstart

#include <cstdio>
#include <string>
#include <utility>

#include "cq/enumerate.h"
#include "cq/parser.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "tree/document.h"
#include "tree/tree.h"
#include "tree/xml.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace {

constexpr const char* kDocument = R"(
<library>
  <shelf topic="databases">
    <book year="1995"><title/><author name="abiteboul"/></book>
    <book year="2002"><title/><author name="gottlob"/><author name="koch"/></book>
  </shelf>
  <shelf topic="logic">
    <book year="1999"><title/><author name="immerman"/></book>
  </shelf>
</library>
)";

void PrintNodes(const treeq::Tree& tree, const std::vector<treeq::NodeId>& nodes) {
  for (treeq::NodeId n : nodes) {
    std::printf("  node %d:", n);
    for (treeq::LabelId l : tree.labels(n)) {
      std::printf(" %s", tree.label_table().Name(l).c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  // 1. Parse the document into an unranked ordered labeled tree.
  treeq::Result<treeq::Tree> parsed = treeq::ParseXml(kDocument);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  // A Document bundles the tree with its orders and label index: the one
  // input every query engine takes.
  const treeq::Document doc(std::move(parsed).value());
  const treeq::Tree& tree = doc.tree();
  std::printf("document with %d nodes, depth %d:\n%s\n", tree.num_nodes(),
              tree.Depth(), ToOutline(tree).c_str());

  // 2. Core XPath, evaluated set-at-a-time in O(|D| * |Q|).
  auto xp = treeq::xpath::ParseXPath("//book[author]/author").value();
  treeq::NodeSet authors = treeq::xpath::EvalQueryFromRoot(doc, *xp).value();
  std::printf("XPath //book[author]/author selects %d nodes:\n",
              authors.size());
  PrintNodes(tree, authors.ToVector());

  // 3. Monadic datalog via TMNF + grounding + Minoux' algorithm
  //    (Theorem 3.2): books on a databases shelf.
  auto program = treeq::datalog::ParseProgram(R"(
    DbShelf(x)  :- Lab_shelf(x), Label("@topic=databases", x).
    DbBook(x)   :- Child(y, x), DbShelf(y), Lab_book(x).
    ?- DbBook.
  )").value();
  treeq::Result<treeq::NodeSet> db_books =
      treeq::datalog::EvaluateDatalog(program, doc);
  std::printf("\ndatalog DbBook selects %d nodes:\n", db_books.value().size());
  PrintNodes(tree, db_books.value().ToVector());

  // 4. A conjunctive query evaluated with the full reducer + the Figure 6
  //    enumerator (Yannakakis / Proposition 6.10): (shelf, author) pairs.
  auto cq = treeq::cq::ParseCq(
      "Q(s, a) :- Child+(s, a), Lab_shelf(s), Lab_author(a).").value();
  treeq::Result<treeq::cq::TupleSet> pairs =
      treeq::cq::EvaluateAcyclic(cq, doc);
  std::printf("\nCQ (shelf, author) has %zu result tuples:\n",
              pairs.value().size());
  for (const auto& tuple : pairs.value()) {
    std::printf("  (%d, %d)\n", tuple[0], tuple[1]);
  }
  return 0;
}
