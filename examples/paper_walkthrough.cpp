// Section III of the paper, replayed step by step on the running example:
// the conflict graph with sharing degrees and max-clique sizes (Fig. 4),
// the structured PVES, every ΔSD coloring decision (the binder's events),
// the Lemma-2 check, and the final data paths of Fig. 5 with their
// minimal-area BIST solutions.
//
// Run:  ./paper_walkthrough

#include <iostream>

#include "binding/bist_aware_binder.hpp"
#include "binding/cbilbo_check.hpp"
#include "binding/enumerate.hpp"
#include "binding/sharing.hpp"
#include "binding/traditional_binder.hpp"
#include "bist/allocator.hpp"
#include "core/annealed_binder.hpp"
#include "dfg/benchmarks.hpp"
#include "graph/chordal.hpp"
#include "graph/conflict.hpp"
#include "graph/interval.hpp"
#include "interconnect/build_datapath.hpp"
#include "obs/events.hpp"
#include "support/table.hpp"

int main() {
  using namespace lbist;

  Benchmark bench = make_ex1();
  const Dfg& dfg = bench.design.dfg;
  std::cout << "=== the scheduled DFG (paper Fig. 2) ===\n"
            << print_dfg(dfg, &*bench.design.schedule) << "\n";

  auto lt = compute_lifetimes(dfg, *bench.design.schedule);
  auto cg = build_conflict_graph(dfg, lt);
  auto mb = ModuleBinding::bind(dfg, *bench.design.schedule,
                                parse_module_spec(bench.module_spec));
  SharingAnalysis sa(dfg, mb);

  std::cout << "=== conflict graph with (SD, MCS) — paper Fig. 4 ===\n";
  const UndirectedGraph g = interval_graph(cg.live_intervals());
  auto peo = perfect_elimination_order(g);
  auto mcs = max_clique_through_vertex(g, *peo);
  TextTable fig4({"var", "lifetime", "SD", "MCS"});
  for (std::size_t v = 0; v < cg.vars.size(); ++v) {
    const auto& iv = lt[cg.vars[v]];
    fig4.add_row({dfg.var(cg.vars[v]).name,
                  "(" + std::to_string(iv.birth) + "," +
                      std::to_string(iv.death) + "]",
                  std::to_string(sa.sd(cg.vars[v])),
                  std::to_string(mcs[v])});
  }
  std::cout << fig4 << "\n";

  std::cout << "=== the binder's decisions (Section III.A.2) ===\n";
  AlgorithmEvents events;
  auto rb = bind_registers_bist_aware(dfg, cg, mb, {}, &events);
  for (const auto& line : binder_decision_lines(events.snapshot())) {
    std::cout << "  " << line << "\n";
  }
  std::cout << "final binding: " << rb.to_string(dfg) << "\n\n";

  std::cout << "=== Lemma 2: forced CBILBOs per binding ===\n";
  auto rb_trad = bind_registers_traditional(dfg, cg, lt);
  std::cout << "  testable binding:    "
            << forced_cbilbos(mb, rb.reg_of).size() << " forced CBILBO(s)\n";
  std::cout << "  left-edge binding:   "
            << forced_cbilbos(mb, rb_trad.reg_of).size()
            << " forced CBILBO(s) — " << rb_trad.to_string(dfg) << "\n\n";

  std::cout << "=== the resulting data paths (paper Fig. 5) ===\n";
  AreaModel model;
  BistAllocator alloc(model);
  for (auto [label, binding] :
       {std::pair<const char*, const RegisterBinding*>{"testable (5a)", &rb},
        {"traditional (5b)", &rb_trad}}) {
    auto dp = build_datapath(dfg, mb, *binding);
    auto sol = alloc.solve(dp);
    std::cout << "--- " << label << " ---\n"
              << dp.describe() << sol.describe(dp) << "\n";
  }

  std::cout << "=== the whole solution space (the paper's '108') ===\n";
  const std::size_t total = count_bindings_exact(dfg, cg, 3);
  double best = 1e18, worst = 0;
  (void)enumerate_bindings(dfg, cg, 3, [&](const RegisterBinding& b) {
    if (b.num_regs() == 3) {
      const double c = binding_cost(dfg, mb, b, model);
      best = std::min(best, c);
      worst = std::max(worst, c);
    }
    return true;
  });
  std::cout << total << " minimum-register bindings exist for this "
            << "reconstruction (the paper's DFG had 108);\n"
            << "total cost (BIST extra + muxes) spans " << best << ".."
            << worst << " gates — only a subset is testable cheaply,\n"
            << "exactly the point of Section III.\n";
  return 0;
}
