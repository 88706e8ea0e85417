// Exhaustive binding enumeration and the annealed binder.

#include <gtest/gtest.h>

#include "binding/bist_aware_binder.hpp"
#include "binding/enumerate.hpp"
#include "core/annealed_binder.hpp"
#include "dfg/benchmarks.hpp"
#include "graph/conflict.hpp"

namespace lbist {
namespace {

struct Ex1Fixture {
  Benchmark bench = make_ex1();
  IdMap<VarId, LiveInterval> lt =
      compute_lifetimes(bench.design.dfg, *bench.design.schedule);
  VarConflictGraph cg = build_conflict_graph(bench.design.dfg, lt);
  ModuleBinding mb =
      ModuleBinding::bind(bench.design.dfg, *bench.design.schedule,
                          parse_module_spec(bench.module_spec));
};

TEST(Enumerate, AllBindingsAreValidAndCanonical) {
  Ex1Fixture f;
  std::size_t count = 0;
  std::set<std::string> seen;
  (void)enumerate_bindings(f.bench.design.dfg, f.cg, 3,
                           [&](const RegisterBinding& rb) {
                             rb.validate(f.bench.design.dfg, f.lt);
                             // Canonical: no duplicates up to renaming.
                             EXPECT_TRUE(
                                 seen.insert(rb.to_string(f.bench.design.dfg))
                                     .second);
                             ++count;
                             return true;
                           });
  EXPECT_GT(count, 0u);
  EXPECT_EQ(seen.size(), count);
}

TEST(Enumerate, CountsMatchHandComputableGraphs) {
  // An empty 3-vertex conflict graph: partitions of 3 elements into <= 3
  // classes = Bell(3) = 5; into exactly 2 classes = S(3,2) = 3.
  Dfg dfg("free");
  VarId a = dfg.add_input("a");
  VarId b = dfg.add_input("b");
  VarId r1 = dfg.add_op(OpKind::Add, a, b, "r1");
  dfg.mark_output(r1);
  // Hand-build a conflict graph with 3 isolated vertices.
  VarConflictGraph cg;
  cg.vertex_of.assign(dfg.num_vars(), -1);
  for (VarId v : {a, b, r1}) {
    cg.vertex_of[v] = static_cast<int>(cg.vars.size());
    cg.vars.push_back(v);
  }
  cg.graph = UndirectedGraph(3);
  EXPECT_EQ(enumerate_bindings(dfg, cg, 3,
                               [](const RegisterBinding&) { return true; }),
            5u);
  EXPECT_EQ(count_bindings_exact(dfg, cg, 2), 3u);
  // A triangle conflict graph admits exactly one binding (all singletons).
  cg.graph.add_edge(0, 1);
  cg.graph.add_edge(1, 2);
  cg.graph.add_edge(0, 2);
  EXPECT_EQ(enumerate_bindings(dfg, cg, 3,
                               [](const RegisterBinding&) { return true; }),
            1u);
}

TEST(Enumerate, EarlyStopHonored) {
  Ex1Fixture f;
  std::size_t calls = 0;
  const std::size_t visited = enumerate_bindings(
      f.bench.design.dfg, f.cg, 3, [&](const RegisterBinding&) {
        return ++calls < 5;
      });
  EXPECT_EQ(visited, 5u);
}

TEST(Enumerate, HeuristicBindingIsInTheEnumeratedSpace) {
  Ex1Fixture f;
  auto rb = bind_registers_bist_aware(f.bench.design.dfg, f.cg, f.mb);
  // Canonicalize: sort members within registers and registers by first
  // variable (the enumerator's restricted-growth order sorts by smallest
  // vertex), then compare cost-equivalence via exact match search.
  bool found = false;
  (void)enumerate_bindings(
      f.bench.design.dfg, f.cg, rb.num_regs(),
      [&](const RegisterBinding& candidate) {
        bool same = candidate.num_regs() == rb.num_regs();
        for (const auto& v : f.bench.design.dfg.vars()) {
          if (!v.allocatable()) continue;
          for (const auto& w : f.bench.design.dfg.vars()) {
            if (!w.allocatable()) continue;
            const bool together_a = rb.reg_of[v.id] == rb.reg_of[w.id];
            const bool together_b =
                candidate.reg_of[v.id] == candidate.reg_of[w.id];
            same = same && (together_a == together_b);
          }
        }
        if (same) found = true;
        return !found;
      });
  EXPECT_TRUE(found);
}

TEST(Annealed, NeverWorseThanHeuristicOnBenchmarks) {
  AreaModel model;
  for (const auto& bench : paper_benchmarks()) {
    const Dfg& dfg = bench.design.dfg;
    auto lt = compute_lifetimes(dfg, *bench.design.schedule);
    auto cg = build_conflict_graph(dfg, lt);
    auto mb = ModuleBinding::bind(dfg, *bench.design.schedule,
                                  parse_module_spec(bench.module_spec));
    AnnealOptions opts;
    opts.iterations = 400;
    auto annealed = bind_registers_annealed(dfg, cg, mb, model, opts);
    annealed.validate(dfg, lt);
    const double heuristic_cost = binding_cost(
        dfg, mb, bind_registers_bist_aware(dfg, cg, mb), model);
    EXPECT_LE(binding_cost(dfg, mb, annealed, model),
              heuristic_cost + 1e-9)
        << bench.name;
  }
}

TEST(Annealed, FindsEx1GlobalOptimum) {
  Ex1Fixture f;
  AreaModel model;
  // Ground truth by enumeration.
  double best = 1e18;
  (void)enumerate_bindings(f.bench.design.dfg, f.cg, 3,
                           [&](const RegisterBinding& rb) {
                             if (rb.num_regs() == 3) {
                               best = std::min(
                                   best, binding_cost(f.bench.design.dfg,
                                                      f.mb, rb, model));
                             }
                             return true;
                           });
  AnnealOptions opts;
  opts.iterations = 2000;
  auto annealed = bind_registers_annealed(f.bench.design.dfg, f.cg, f.mb,
                                          model, opts);
  EXPECT_NEAR(binding_cost(f.bench.design.dfg, f.mb, annealed, model), best,
              1e-9);
}

TEST(Annealed, DeterministicForSeed) {
  Ex1Fixture f;
  AnnealOptions opts;
  opts.iterations = 300;
  auto a = bind_registers_annealed(f.bench.design.dfg, f.cg, f.mb,
                                   AreaModel{}, opts);
  auto b = bind_registers_annealed(f.bench.design.dfg, f.cg, f.mb,
                                   AreaModel{}, opts);
  EXPECT_EQ(a.to_string(f.bench.design.dfg), b.to_string(f.bench.design.dfg));
}

}  // namespace
}  // namespace lbist
