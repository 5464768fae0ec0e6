// XML twig pattern matching (Section 6 / [13]): find products that have
// both a five-star rating and a written comment, three ways —
//   1. TwigStack (holistic: all structural joins at once),
//   2. a pipeline of binary structural joins,
//   3. the arc-consistency view of the same problem (Section 6 explains
//      holistic twig joins as arc-consistency + enumeration).
// All three agree; the interesting part is the intermediate-result counts.

#include <cstdio>

#include "cq/arc_consistency.h"
#include "cq/enumerate.h"
#include "cq/twig_join.h"
#include "tree/document.h"
#include "tree/generator.h"
#include "util/random.h"

int main() {
  treeq::Rng rng(2026);
  treeq::CatalogOptions options;
  options.num_products = 200;
  treeq::Document doc(treeq::CatalogDocument(&rng, options));
  std::printf("catalog document: %d nodes, depth %d\n", doc.num_nodes(),
              doc.tree().Depth());

  // The twig:  product[.//rating5][.//comment]
  treeq::cq::TwigPattern twig;
  twig.nodes.push_back({"product", treeq::Axis::kDescendant, -1});
  twig.nodes.push_back({"rating5", treeq::Axis::kDescendant, 0});
  twig.nodes.push_back({"comment", treeq::Axis::kDescendant, 0});
  std::printf("twig: product[.//rating5][.//comment]\n\n");

  // 1. TwigStack.
  treeq::cq::TwigStats holistic_stats;
  treeq::Result<treeq::cq::TupleSet> holistic =
      treeq::cq::TwigStackJoin(twig, doc, &holistic_stats);
  if (!holistic.ok()) {
    std::fprintf(stderr, "%s\n", holistic.status().ToString().c_str());
    return 1;
  }
  std::printf("TwigStack:        %5zu matches, %6llu stack pushes, %6llu "
              "path solutions\n",
              holistic.value().size(),
              static_cast<unsigned long long>(
                  holistic_stats.intermediate_results),
              static_cast<unsigned long long>(holistic_stats.path_solutions));

  // 2. Binary structural-join pipeline.
  treeq::cq::TwigStats binary_stats;
  treeq::Result<treeq::cq::TupleSet> binary =
      treeq::cq::TwigByStructuralJoins(twig, doc, &binary_stats);
  std::printf("binary joins:     %5zu matches, %6llu intermediate tuples\n",
              binary.value().size(),
              static_cast<unsigned long long>(
                  binary_stats.intermediate_results));

  // 3. Arc-consistency + backtracking-free enumeration (Figure 6).
  treeq::cq::ConjunctiveQuery query = twig.ToConjunctiveQuery();
  treeq::cq::AcResult ac = treeq::cq::ComputeMaxArcConsistent(query, doc);
  treeq::Result<treeq::cq::TupleSet> enumerated =
      treeq::cq::EvaluateAcyclic(query, doc);
  std::printf("AC + enumerate:   %5zu matches; candidate sets:",
              enumerated.value().size());
  for (int v = 0; v < query.num_vars(); ++v) {
    std::printf(" |T(%s)|=%d", query.var_names()[v].c_str(),
                ac.theta[v].size());
  }
  std::printf("\n\n");

  bool agree = holistic.value() == binary.value() &&
               binary.value() == enumerated.value();
  std::printf("all three engines agree: %s\n", agree ? "yes" : "NO (bug!)");

  // Show a few matches.
  std::printf("first matches (product, rating5, comment):\n");
  for (size_t i = 0; i < holistic.value().size() && i < 5; ++i) {
    const auto& m = holistic.value()[i];
    std::printf("  (%d, %d, %d)\n", m[0], m[1], m[2]);
  }
  return agree ? 0 : 1;
}
