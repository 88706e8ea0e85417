// Weighted clique partitioning and the clique-partitioning register binder.

#include <gtest/gtest.h>

#include "binding/clique_binder.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/lifetime.hpp"
#include "graph/clique_partition.hpp"
#include "graph/conflict.hpp"
#include "graph/interval.hpp"
#include "graph/chordal.hpp"

namespace lbist {
namespace {

TEST(CliquePartition, SingletonsWhenNoEdges) {
  UndirectedGraph g(4);  // empty compatibility graph
  auto part = clique_partition(g, [](std::size_t, std::size_t) { return 1.0; });
  EXPECT_EQ(part.cliques.size(), 4u);
}

TEST(CliquePartition, CompleteGraphBecomesOneClique) {
  UndirectedGraph g(5);
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = a + 1; b < 5; ++b) g.add_edge(a, b);
  }
  auto part = clique_partition(g, [](std::size_t, std::size_t) { return 1.0; });
  EXPECT_EQ(part.cliques.size(), 1u);
  EXPECT_EQ(part.cliques[0].size(), 5u);
}

TEST(CliquePartition, WeightsSteerMergeOrder) {
  // Path 0-1-2 in the compatibility graph; 0 and 2 not compatible.
  UndirectedGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  // Heavier edge (1,2) merges first; 0 is left alone.
  auto part = clique_partition(g, [](std::size_t a, std::size_t b) {
    return (a == 1 && b == 2) || (a == 2 && b == 1) ? 5.0 : 1.0;
  });
  ASSERT_EQ(part.cliques.size(), 2u);
  EXPECT_EQ(part.clique_of[1], part.clique_of[2]);
  EXPECT_NE(part.clique_of[0], part.clique_of[1]);
}

TEST(CliquePartition, EveryGroupIsAClique) {
  UndirectedGraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  auto part = clique_partition(g, [](std::size_t, std::size_t) { return 1.0; });
  for (const auto& clique : part.cliques) {
    for (std::size_t i = 0; i < clique.size(); ++i) {
      for (std::size_t j = i + 1; j < clique.size(); ++j) {
        EXPECT_TRUE(g.adjacent(clique[i], clique[j]));
      }
    }
  }
}

TEST(CliqueBinder, ValidOnAllBenchmarks) {
  for (const auto& bench : paper_benchmarks()) {
    auto lt = compute_lifetimes(bench.design.dfg, *bench.design.schedule);
    auto cg = build_conflict_graph(bench.design.dfg, lt);
    auto mb = ModuleBinding::bind(bench.design.dfg, *bench.design.schedule,
                                  parse_module_spec(bench.module_spec));
    auto rb = bind_registers_clique(bench.design.dfg, cg, mb);
    rb.validate(bench.design.dfg, lt);
    // Clique partitioning has no minimality guarantee but should stay close
    // on these small interval graphs.
    EXPECT_LE(rb.num_regs(),
              chordal_clique_number(interval_graph(cg.live_intervals())) + 2)
        << bench.name;
  }
}

}  // namespace
}  // namespace lbist
