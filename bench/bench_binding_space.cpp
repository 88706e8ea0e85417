// The binding solution space, measured exhaustively (the paper's Section
// III observation: "There are 108 distinct assignments of the variables in
// E to three registers.  With respect to register and functional unit area
// these 108 assignments are equivalent.  Only a subset of these result in
// more testable data paths").
//
// For each small benchmark this harness enumerates EVERY minimum-register
// binding, prices each with the exact BIST allocator (+ mux area), and
// reports the distribution — then places the paper's heuristic, the
// traditional left-edge binder and the simulated annealer inside it.
//
// Timing benchmark: full-space sweep of ex1 and one annealer run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>

#include "binding/bist_aware_binder.hpp"
#include "binding/enumerate.hpp"
#include "binding/traditional_binder.hpp"
#include "core/annealed_binder.hpp"
#include "dfg/benchmarks.hpp"
#include "graph/conflict.hpp"
#include "support/table.hpp"

namespace {

using namespace lbist;

void print_space_study() {
  TextTable t({"DFG", "#bindings (min regs)", "best", "worst", "median",
               "heuristic", "left-edge", "annealed"});
  t.set_title(
      "Exhaustive binding space — BIST extra + mux gates per binding");
  AreaModel model;

  for (const auto& bench : {make_ex1(), make_ex2()}) {
    const Dfg& dfg = bench.design.dfg;
    auto lt = compute_lifetimes(dfg, *bench.design.schedule);
    auto cg = build_conflict_graph(dfg, lt);
    auto mb = ModuleBinding::bind(dfg, *bench.design.schedule,
                                  parse_module_spec(bench.module_spec));
    const auto min_regs = static_cast<std::size_t>(max_live(dfg, lt));

    std::vector<double> costs;
    (void)enumerate_bindings(dfg, cg, min_regs,
                             [&](const RegisterBinding& rb) {
                               if (rb.num_regs() == min_regs) {
                                 costs.push_back(
                                     binding_cost(dfg, mb, rb, model));
                               }
                               return costs.size() < 250000;  // safety cap
                             });
    std::sort(costs.begin(), costs.end());

    const double heuristic = binding_cost(
        dfg, mb, bind_registers_bist_aware(dfg, cg, mb), model);
    const double left_edge = binding_cost(
        dfg, mb, bind_registers_traditional(dfg, cg, lt), model);
    AnnealOptions aopts;
    aopts.iterations = 1500;
    const double annealed = binding_cost(
        dfg, mb, bind_registers_annealed(dfg, cg, mb, model, aopts), model);

    t.add_row({bench.name, std::to_string(costs.size()),
               fmt_double(costs.front(), 0), fmt_double(costs.back(), 0),
               fmt_double(costs[costs.size() / 2], 0),
               fmt_double(heuristic, 0), fmt_double(left_edge, 0),
               fmt_double(annealed, 0)});
  }
  std::cout << t;

  // Distribution detail for ex1 (the paper's own example).
  {
    auto bench = make_ex1();
    const Dfg& dfg = bench.design.dfg;
    auto lt = compute_lifetimes(dfg, *bench.design.schedule);
    auto cg = build_conflict_graph(dfg, lt);
    auto mb = ModuleBinding::bind(dfg, *bench.design.schedule,
                                  parse_module_spec(bench.module_spec));
    std::vector<double> costs;
    (void)enumerate_bindings(dfg, cg, 3, [&](const RegisterBinding& rb) {
      if (rb.num_regs() == 3) {
        costs.push_back(binding_cost(dfg, mb, rb, AreaModel{}));
      }
      return true;
    });
    std::sort(costs.begin(), costs.end());
    std::cout << "\nex1: " << costs.size()
              << " minimum-register bindings (paper's DFG: 108); cost "
                 "histogram:\n";
    double bucket = costs.front();
    std::size_t count = 0;
    for (double c : costs) {
      if (c != bucket) {
        std::cout << "  " << bucket << " gates: " << std::string(count, '#')
                  << " (" << count << ")\n";
        bucket = c;
        count = 0;
      }
      ++count;
    }
    std::cout << "  " << bucket << " gates: " << std::string(count, '#')
              << " (" << count << ")\n";
  }
}

void BM_EnumerateEx1Space(benchmark::State& state) {
  auto bench = make_ex1();
  auto lt = compute_lifetimes(bench.design.dfg, *bench.design.schedule);
  auto cg = build_conflict_graph(bench.design.dfg, lt);
  for (auto _ : state) {
    auto n = count_bindings_exact(bench.design.dfg, cg, 3);
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_EnumerateEx1Space);

void BM_AnnealEx1(benchmark::State& state) {
  auto bench = make_ex1();
  auto lt = compute_lifetimes(bench.design.dfg, *bench.design.schedule);
  auto cg = build_conflict_graph(bench.design.dfg, lt);
  auto mb = ModuleBinding::bind(bench.design.dfg, *bench.design.schedule,
                                parse_module_spec(bench.module_spec));
  AnnealOptions opts;
  opts.iterations = 500;
  for (auto _ : state) {
    auto rb = bind_registers_annealed(bench.design.dfg, cg, mb, AreaModel{},
                                      opts);
    benchmark::DoNotOptimize(rb.num_regs());
  }
}
BENCHMARK(BM_AnnealEx1);

}  // namespace

int main(int argc, char** argv) {
  print_space_study();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
