// Differential test of the interval-native chordal routines
// (src/graph/interval.hpp) against the generic bitset ones
// (src/graph/chordal.hpp) run on `interval_graph`: elimination order under
// the identity rank and the binder's (SD, MCS) rank, MCS, and register
// feasibility, on the paper designs, the checked-in corpus seeds, large
// random DFGs in both lifetime conventions and hand-made interval
// families.  Also checks `interval_graph`'s edges themselves.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "binding/module_binding.hpp"
#include "binding/module_spec.hpp"
#include "binding/sharing.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/lifetime.hpp"
#include "dfg/random_dfg.hpp"
#include "fuzz/corpus.hpp"
#include "graph/chordal.hpp"
#include "graph/conflict.hpp"
#include "graph/interval.hpp"
#include "support/check.hpp"
#include "support/dyn_bitset.hpp"

namespace lbist {
namespace {

/// Compares every interval routine with its generic counterpart on graph
/// `g`, whose edges are the overlaps of `iv`.  `sd` is the per-vertex
/// sharing degree the binder ranks by.
void expect_matches_generic(const std::string& name, const UndirectedGraph& g,
                            std::span<const LiveInterval> iv,
                            const std::vector<int>& sd) {
  SCOPED_TRACE(name);
  const std::size_t n = iv.size();
  ASSERT_EQ(g.num_vertices(), n);

  const auto base = perfect_elimination_order(g);
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(interval_elimination_order(iv), *base);
  const std::vector<std::size_t> mcs = max_clique_through_vertex(g, *base);
  EXPECT_EQ(interval_max_clique_through_vertex(iv), mcs);

  // The binder's PVES rank: by (SD, MCS), ties by vertex index.
  std::vector<std::size_t> by_priority(n);
  std::iota(by_priority.begin(), by_priority.end(), std::size_t{0});
  std::stable_sort(by_priority.begin(), by_priority.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (sd[a] != sd[b]) return sd[a] < sd[b];
                     return mcs[a] < mcs[b];
                   });
  std::vector<std::size_t> rank(n);
  for (std::size_t i = 0; i < n; ++i) rank[by_priority[i]] = i;
  const auto ranked = perfect_elimination_order(g, rank);
  ASSERT_TRUE(ranked.has_value());
  EXPECT_EQ(interval_elimination_order(iv, rank), *ranked);

  // Feasibility: first-fit in reverse ranked order, testing every
  // (vertex, register) pair against the bitset row and the sorted members.
  std::vector<DynBitset> members;
  std::vector<DisjointIntervals> held;
  std::size_t mismatches = 0;
  for (auto it = ranked->rbegin(); it != ranked->rend(); ++it) {
    const std::size_t v = *it;
    std::size_t chosen = members.size();
    for (std::size_t r = 0; r < members.size(); ++r) {
      const bool conflict = g.row(v).intersects(members[r]);
      if (conflict != held[r].overlaps(iv[v])) ++mismatches;
      if (!conflict && chosen == members.size()) chosen = r;
    }
    if (chosen == members.size()) {
      members.emplace_back(n);
      held.emplace_back();
    }
    members[chosen].set(v);
    held[chosen].insert(iv[v]);
  }
  EXPECT_EQ(mismatches, 0u);
}

void expect_design_matches(const std::string& name, const Dfg& dfg,
                           const Schedule& sched,
                           const std::vector<ModuleProto>& protos) {
  const ModuleBinding mb = ModuleBinding::bind(dfg, sched, protos);
  const SharingAnalysis sa(dfg, mb);
  for (const bool hold : {true, false}) {
    LifetimeOptions lo;
    lo.hold_outputs_to_end = hold;
    const VarConflictGraph cg =
        build_conflict_graph(dfg, compute_lifetimes(dfg, sched, lo));
    std::vector<int> sd(cg.vars.size());
    for (std::size_t v = 0; v < sd.size(); ++v) sd[v] = sa.sd(cg.vars[v]);
    expect_matches_generic(name + (hold ? " (outputs held)" : ""),
                           interval_graph(cg.live_intervals()),
                           cg.live_intervals(), sd);
  }
}

/// Hand-made interval families: ties, nesting, touching endpoints, steps
/// at the ends of the int range, and the trivial graphs.
const std::vector<std::pair<std::string, std::vector<LiveInterval>>>&
hand_made_families() {
  static const std::vector<std::pair<std::string, std::vector<LiveInterval>>>
      sets = {
          {"identical", {{2, 6}, {2, 6}, {2, 6}, {2, 6}, {2, 6}}},
          {"nested", {{0, 10}, {1, 9}, {2, 8}, {3, 7}, {4, 6}, {4, 5}}},
          {"touching", {{0, 2}, {2, 4}, {4, 6}, {2, 6}, {0, 4}, {6, 7}}},
          {"extreme steps",
           {{-2000000000, 3}, {0, 2000000000}, {2, 3}, {3, 4}}},
          {"one vertex", {{3, 4}}},
          {"none", {}}};
  return sets;
}

TEST(IntervalChordal, MatchesGenericRoutines) {
  for (const Benchmark& bench : paper_benchmarks()) {
    expect_design_matches(bench.name, bench.design.dfg,
                          *bench.design.schedule,
                          parse_module_spec(bench.module_spec));
  }

  const std::filesystem::path corpus =
      std::filesystem::path(LOWBIST_SOURCE_DIR) / "examples" / "corpus";
  std::size_t seeds = 0;
  for (const auto& file : std::filesystem::directory_iterator(corpus)) {
    if (file.path().extension() != ".corpus") continue;
    std::ifstream in(file.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    const CorpusEntry entry = parse_corpus(buf.str());
    const Dfg& dfg = entry.design.dfg;
    const Schedule& sched = *entry.design.schedule;
    expect_design_matches(file.path().filename().string(), dfg, sched,
                          minimal_module_spec(dfg, sched));
    ++seeds;
  }
  EXPECT_GE(seeds, 2u);

  // The scaling tier's large shape (bench/bench_scaling.cpp).
  for (const int ops : {1000, 2000, 5000}) {
    RandomDfgOptions o;
    o.seed = 424242;
    o.ops_per_step = 8;
    o.num_steps = ops / o.ops_per_step;
    o.num_inputs = 12;
    o.reuse_probability = 0.9;
    o.chain_probability = 0.3;
    const RandomDfg rd = make_random_dfg(o);
    expect_design_matches("random " + std::to_string(ops), rd.dfg,
                          rd.schedule,
                          minimal_module_spec(rd.dfg, rd.schedule));
  }

  for (const auto& [name, iv] : hand_made_families()) {
    std::vector<int> sd(iv.size());
    for (std::size_t v = 0; v < sd.size(); ++v) {
      sd[v] = static_cast<int>(v % 2);
    }
    expect_matches_generic(name, interval_graph(iv), iv, sd);
  }

  // An empty interval has no place in a conflict graph.
  const std::vector<LiveInterval> empty_interval{{0, 2}, {3, 3}};
  EXPECT_THROW((void)interval_elimination_order(empty_interval), Error);
  EXPECT_THROW((void)interval_max_clique_through_vertex(empty_interval),
               Error);
}

/// `interval_graph` joins exactly the pairs that share a step: for
/// (b1, d1] and (b2, d2], some t with max(b1, b2) < t <= min(d1, d2).
void expect_edges_are_overlaps(const std::string& name,
                               std::span<const LiveInterval> iv) {
  SCOPED_TRACE(name);
  const UndirectedGraph g = interval_graph(iv);
  ASSERT_EQ(g.num_vertices(), iv.size());
  std::size_t edges = 0;
  for (std::size_t a = 0; a < iv.size(); ++a) {
    EXPECT_FALSE(g.adjacent(a, a));
    for (std::size_t b = a + 1; b < iv.size(); ++b) {
      const bool share_a_step = std::max(iv[a].birth, iv[b].birth) <
                                std::min(iv[a].death, iv[b].death);
      EXPECT_EQ(g.adjacent(a, b), share_a_step) << a << " vs " << b;
      EXPECT_EQ(g.adjacent(b, a), share_a_step) << b << " vs " << a;
      edges += share_a_step ? 1 : 0;
    }
  }
  EXPECT_EQ(g.num_edges(), edges);
}

TEST(ConflictGraph, EdgesMatchOverlaps) {
  const Benchmark bench = make_ex1();
  const VarConflictGraph cg = build_conflict_graph(
      bench.design.dfg,
      compute_lifetimes(bench.design.dfg, *bench.design.schedule));
  expect_edges_are_overlaps("ex1", cg.live_intervals());
  for (const auto& [name, iv] : hand_made_families()) {
    expect_edges_are_overlaps(name, iv);
  }

  // Endpoints that only touch share no step.
  const std::vector<LiveInterval> touching = {{0, 2}, {2, 4}, {0, 4}};
  const UndirectedGraph g = interval_graph(touching);
  EXPECT_FALSE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(0, 2));
  EXPECT_TRUE(g.adjacent(1, 2));
}

}  // namespace
}  // namespace lbist
