// Web information extraction with monadic datalog (the paper's motivating
// application for Section 3, after [31]/Lixto [6]): a wrapper program marks
// the record fields of a product-listing page. Monadic datalog is exactly
// as expressive as MSO on trees, and Theorem 3.2 evaluates it in
// O(|program| * |document|).
//
// The page below mimics scraped HTML: records are <tr> rows inside the
// second <table>; the first cell of each row is the product name, the last
// cell is the price, and discount rows carry class="sale".

#include <cstdio>
#include <utility>

#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "tree/document.h"
#include "tree/tree.h"
#include "tree/xml.h"

namespace {

constexpr const char* kPage = R"(
<html>
  <body>
    <table class="nav"><tr><td/></tr></table>
    <table class="products">
      <tr><td>widget</td><td/><td>9</td></tr>
      <tr class="sale"><td>gadget</td><td/><td>5</td></tr>
      <tr><td>doohickey</td><td/><td>12</td></tr>
      <tr class="sale"><td>gizmo</td><td/><td>3</td></tr>
    </table>
    <table class="footer"><tr><td/></tr></table>
  </body>
</html>
)";

// The wrapper: navigate structurally (no string matching needed — the
// "bare tree structure" of Section 2 suffices).
constexpr const char* kWrapper = R"(
  % The products table and its record rows.
  ProductsTable(t) :- Lab_table(t), Label("@class=products", t).
  Record(r)        :- Child(t, r), ProductsTable(t), Lab_tr(r).

  % Field extraction: the first cell is the name, the last cell the price.
  NameCell(c)  :- FirstChild(r, c), Record(r), Lab_td(c).
  LastCell(c)  :- Child(r, c), Record(r), Lab_td(c), LastSibling(c).
  PriceCell(c) :- LastCell(c).

  % Sale records and their names.
  SaleRecord(r) :- Record(r), Label("@class=sale", r).
  SaleName(c)   :- FirstChild(r, c), SaleRecord(r), Lab_td(c).

  ?- SaleName.
)";

void Report(const char* what, const treeq::Tree& tree,
            const treeq::NodeSet& nodes) {
  std::printf("%-12s:", what);
  for (treeq::NodeId n : nodes.ToVector()) std::printf(" node%d", n);
  std::printf("  (%d match%s)\n", nodes.size(),
              nodes.size() == 1 ? "" : "es");
}

}  // namespace

int main() {
  treeq::Result<treeq::Tree> page = treeq::ParseXml(kPage);
  if (!page.ok()) {
    std::fprintf(stderr, "%s\n", page.status().ToString().c_str());
    return 1;
  }
  const treeq::Document doc(std::move(page).value());
  const treeq::Tree& tree = doc.tree();

  treeq::Result<treeq::datalog::Program> wrapper =
      treeq::datalog::ParseProgram(kWrapper);
  if (!wrapper.ok()) {
    std::fprintf(stderr, "%s\n", wrapper.status().ToString().c_str());
    return 1;
  }

  // Run each extraction predicate by re-targeting the query predicate: the
  // program is compiled through TMNF + grounding + Minoux each time
  // (Theorem 3.2 makes this linear, so re-running is cheap).
  std::printf("wrapper program:\n%s\n", wrapper.value().ToString().c_str());
  for (const char* pred :
       {"Record", "NameCell", "PriceCell", "SaleRecord", "SaleName"}) {
    treeq::datalog::Program program = wrapper.value();
    program.set_query_predicate(pred);
    treeq::datalog::EvalStats stats;
    treeq::Result<treeq::NodeSet> result =
        treeq::datalog::EvaluateDatalog(program, doc, &stats);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    Report(pred, tree, result.value());
  }
  return 0;
}
