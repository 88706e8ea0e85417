// Reproduces the paper's illustrative figures as text/DOT:
//   Fig. 1 — a generic configuration with simple I-paths (hand-built
//            netlist; the I-path inventory is printed),
//   Fig. 2 — the ex1 scheduled DFG (text + DOT),
//   Fig. 3 — sharing of I-paths: a common-head TPG and common-tail SA
//            across two modules,
//   Fig. 4 — the ex1 variable conflict graph annotated with SD and MCS,
//   Fig. 5 — the testable (a) and traditional (b) ex1 data paths with
//            their minimal-area BIST solutions.
//
// Timing benchmark: conflict-graph construction + structured PVES on ex1.

#include <benchmark/benchmark.h>

#include <iostream>

#include "binding/sharing.hpp"
#include "core/compare.hpp"
#include "dfg/benchmarks.hpp"
#include "graph/chordal.hpp"
#include "graph/conflict.hpp"
#include "graph/interval.hpp"
#include "rtl/ipath.hpp"
#include "support/table.hpp"

namespace {

using namespace lbist;

const char* port_name(IPathPort p) {
  switch (p) {
    case IPathPort::Left: return "L";
    case IPathPort::Right: return "R";
    case IPathPort::Out: return "out";
  }
  return "?";
}

void print_fig1_and_3() {
  // The Fig. 1 shape: R1,R2 -> m1 -> M1.L, R3 -> M1.R.  Extended with a
  // second module as in Fig. 3 so I-path sharing appears.
  Datapath dp;
  dp.name = "fig1";
  dp.num_allocated = 4;
  for (int i = 1; i <= 4; ++i) {
    DpRegister r;
    r.name = "R" + std::to_string(i);
    dp.registers.push_back(r);
  }
  DpModule m1;
  m1.name = "M1(+)";
  m1.proto = ModuleProto{{OpKind::Add}};
  m1.left_sources = {0, 1};
  m1.right_sources = {2};
  m1.dest_registers = {3};
  DpModule m2;
  m2.name = "M2(*)";
  m2.proto = ModuleProto{{OpKind::Mul}};
  m2.left_sources = {0};
  m2.right_sources = {2};
  m2.dest_registers = {3};
  dp.modules = {m1, m2};
  dp.registers[3].source_modules = {0, 1};

  std::cout << "--- Fig. 1 / Fig. 3: simple I-paths and sharing ---\n";
  std::cout << dp.describe();
  for (const auto& p : simple_ipaths(dp)) {
    std::cout << "  I-path: " << dp.registers[p.reg].name << " <-> "
              << dp.modules[p.module].name << "." << port_name(p.port)
              << "\n";
  }
  std::cout << "  shared head: R1 is a TPG candidate for both modules; "
               "shared tail: R4 is an SA candidate for both (Fig. 3).\n\n";
}

void print_fig2_and_4() {
  Benchmark bench = make_ex1();
  const Dfg& dfg = bench.design.dfg;
  std::cout << "--- Fig. 2: scheduled DFG (ex1) ---\n"
            << print_dfg(dfg, &*bench.design.schedule) << "\n"
            << dfg.to_dot() << "\n";

  auto lt = compute_lifetimes(dfg, *bench.design.schedule);
  auto cg = build_conflict_graph(dfg, lt);
  auto mb = ModuleBinding::bind(dfg, *bench.design.schedule,
                                parse_module_spec(bench.module_spec));
  SharingAnalysis sa(dfg, mb);
  const UndirectedGraph g = interval_graph(cg.live_intervals());
  auto peo = perfect_elimination_order(g);
  auto mcs = max_clique_through_vertex(g, *peo);

  std::cout << "--- Fig. 4: variable conflict graph with (SD, MCS) ---\n";
  TextTable t({"variable", "SD", "MCS", "conflicts with"});
  for (std::size_t v = 0; v < cg.vars.size(); ++v) {
    std::string adj;
    for (std::size_t u : g.neighbors(v)) {
      adj += (adj.empty() ? "" : ",") + dfg.var(cg.vars[u]).name;
    }
    t.add_row({dfg.var(cg.vars[v]).name, std::to_string(sa.sd(cg.vars[v])),
               std::to_string(mcs[v]), adj});
  }
  std::cout << t << "\n";
}

void print_fig5() {
  Benchmark bench = make_ex1();
  ComparisonRow row = compare_benchmark(bench);
  std::cout << "--- Fig. 5(a): data path from BIST-aware binding ---\n"
            << row.testable.describe(bench.design.dfg)
            << row.testable.datapath.to_dot() << "\n";
  std::cout << "--- Fig. 5(b): data path from traditional binding ---\n"
            << row.traditional.describe(bench.design.dfg)
            << row.traditional.datapath.to_dot() << "\n";
}

void BM_ConflictGraphAndPves(benchmark::State& state) {
  Benchmark bench = make_ex1();
  auto lt = compute_lifetimes(bench.design.dfg, *bench.design.schedule);
  for (auto _ : state) {
    auto cg = build_conflict_graph(bench.design.dfg, lt);
    auto peo = perfect_elimination_order(interval_graph(cg.live_intervals()));
    benchmark::DoNotOptimize(peo->size());
  }
}
BENCHMARK(BM_ConflictGraphAndPves);

}  // namespace

int main(int argc, char** argv) {
  print_fig1_and_3();
  print_fig2_and_4();
  print_fig5();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
