// Unit tests for the graph library: undirected graphs, chordality, PVES
// construction, elimination cliques, clique numbers (also against the
// Bron-Kerbosch oracle in fuzz/reference), and conflict-graph building
// (the edge set itself is checked in interval_test.cpp).

#include <gtest/gtest.h>

#include <numeric>

#include "dfg/benchmarks.hpp"
#include "dfg/lifetime.hpp"
#include "fuzz/reference.hpp"
#include "graph/chordal.hpp"
#include "graph/conflict.hpp"
#include "graph/interval.hpp"
#include "graph/undirected_graph.hpp"
#include "support/check.hpp"

namespace lbist {
namespace {

UndirectedGraph path4() {
  UndirectedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  return g;
}

UndirectedGraph cycle4() {
  UndirectedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  return g;
}

TEST(UndirectedGraph, EdgesAndDegree) {
  UndirectedGraph g = path4();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(1, 0));
  EXPECT_FALSE(g.adjacent(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
  g.add_edge(0, 1);  // idempotent
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(UndirectedGraph, RejectsSelfLoop) {
  UndirectedGraph g(2);
  EXPECT_THROW(g.add_edge(1, 1), Error);
}

TEST(Chordal, SimplicialDetection) {
  UndirectedGraph g = path4();
  DynBitset removed(4);
  EXPECT_TRUE(is_simplicial(g, 0, removed));   // leaf
  EXPECT_FALSE(is_simplicial(g, 1, removed));  // neighbors 0,2 not adjacent
  removed.set(0);
  EXPECT_TRUE(is_simplicial(g, 1, removed));  // only neighbor 2 remains
}

TEST(Chordal, PathIsChordalCycleIsNot) {
  EXPECT_TRUE(is_chordal(path4()));
  EXPECT_FALSE(is_chordal(cycle4()));
  EXPECT_FALSE(perfect_elimination_order(cycle4()).has_value());
}

TEST(Chordal, ChordedCycleIsChordal) {
  UndirectedGraph g = cycle4();
  g.add_edge(0, 2);
  EXPECT_TRUE(is_chordal(g));
}

TEST(Chordal, PeoRespectsPriority) {
  UndirectedGraph g = path4();
  // Both leaves (0 and 3) are simplicial; priority prefers 3 first.
  std::vector<std::size_t> rank = {3, 2, 1, 0};
  auto order = perfect_elimination_order(g, rank);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->front(), 3u);
}

TEST(Chordal, EliminationCliquesCoverMaximalCliques) {
  // Two triangles sharing an edge: {0,1,2} and {1,2,3}.
  UndirectedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  auto order = perfect_elimination_order(g);
  ASSERT_TRUE(order.has_value());
  auto cliques = elimination_cliques(g, *order);
  bool saw012 = false, saw123 = false;
  for (const auto& c : cliques) {
    if (c == std::vector<std::size_t>{0, 1, 2}) saw012 = true;
    if (c == std::vector<std::size_t>{1, 2, 3}) saw123 = true;
  }
  EXPECT_TRUE(saw012);
  EXPECT_TRUE(saw123);
}

TEST(Chordal, MaxCliqueThroughVertex) {
  UndirectedGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  auto order = perfect_elimination_order(g);
  ASSERT_TRUE(order.has_value());
  auto mcs = max_clique_through_vertex(g, *order);
  EXPECT_EQ(mcs[0], 3u);
  EXPECT_EQ(mcs[1], 3u);
  EXPECT_EQ(mcs[2], 3u);
  EXPECT_EQ(mcs[3], 2u);
}

TEST(Chordal, CliqueNumberOfTriangleWithTail) {
  UndirectedGraph g(5);
  // K3 plus pendant vertices.
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  EXPECT_EQ(chordal_clique_number(g), 3u);
  EXPECT_THROW((void)chordal_clique_number(cycle4()), Error);
}

TEST(ConflictGraph, Ex1IsIntervalAndHasCliqueNumberThree) {
  auto bench = make_ex1();
  auto lt = compute_lifetimes(bench.design.dfg, *bench.design.schedule);
  auto cg = build_conflict_graph(bench.design.dfg, lt);
  EXPECT_EQ(cg.vars.size(), 8u);
  EXPECT_EQ(cg.graph.num_vertices(), 0u);  // synthesis builds no edges
  const UndirectedGraph g = interval_graph(cg.live_intervals());
  EXPECT_EQ(g.num_vertices(), 8u);
  EXPECT_TRUE(is_chordal(g));
  EXPECT_EQ(chordal_clique_number(g), 3u);
}

TEST(ConflictGraph, ExcludesNonAllocatable) {
  auto bench = make_paulin();
  auto lt = compute_lifetimes(bench.design.dfg, *bench.design.schedule);
  auto cg = build_conflict_graph(bench.design.dfg, lt);
  for (VarId v : cg.vars) {
    EXPECT_TRUE(bench.design.dfg.var(v).allocatable());
  }
  // vertex_of maps back consistently.
  for (std::size_t i = 0; i < cg.vars.size(); ++i) {
    EXPECT_EQ(cg.vertex(cg.vars[i]), i);
  }
}

TEST(BronKerbosch, HandComputableGraphs) {
  EXPECT_EQ(max_clique_size(path4()), 2u);
  EXPECT_EQ(max_clique_size(cycle4()), 2u);  // C4: non-chordal, clique 2
  UndirectedGraph k4(4);
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) k4.add_edge(a, b);
  }
  EXPECT_EQ(max_clique_size(k4), 4u);
  EXPECT_EQ(max_clique(k4).size(), 4u);
}

TEST(BronKerbosch, AgreesWithChordalMachineryOnIntervalGraphs) {
  for (const auto& bench : paper_benchmarks()) {
    auto lt = compute_lifetimes(bench.design.dfg, *bench.design.schedule);
    auto cg = build_conflict_graph(bench.design.dfg, lt);
    const UndirectedGraph g = interval_graph(cg.live_intervals());
    EXPECT_EQ(max_clique_size(g), chordal_clique_number(g)) << bench.name;
    EXPECT_EQ(static_cast<std::size_t>(max_live(bench.design.dfg, lt)),
              chordal_clique_number(g))
        << bench.name;
  }
}

TEST(BronKerbosch, EmptyAndSingleton) {
  EXPECT_EQ(max_clique_size(UndirectedGraph(0)), 0u);
  EXPECT_EQ(max_clique_size(UndirectedGraph(1)), 1u);
  UndirectedGraph isolated(3);
  EXPECT_EQ(max_clique_size(isolated), 1u);
}

}  // namespace
}  // namespace lbist
