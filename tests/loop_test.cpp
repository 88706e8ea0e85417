// Loop-carried binding (the paper's stated out-of-scope case, implemented):
// tie validation, allocation units, the loop-aware binder, and the
// self-adjacency cost of loops on the diff-eq benchmark.

#include <gtest/gtest.h>

#include "binding/loop_binder.hpp"
#include "bist/allocator.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/parse.hpp"
#include "fuzz/reference.hpp"
#include "interconnect/build_datapath.hpp"
#include "rtl/controller.hpp"
#include "rtl/simulate.hpp"
#include "support/check.hpp"

namespace lbist {
namespace {

TEST(LoopTies, ValidationRules) {
  Dfg dfg("ties");
  VarId x = dfg.add_input("x");
  VarId k = dfg.add_input("k", /*port_resident=*/true);
  VarId x1 = dfg.add_op(OpKind::Add, x, x, "x1");
  dfg.mark_output(x1);
  // Carried var must be an output result; init must be an allocatable
  // input.
  EXPECT_THROW(dfg.tie_loop(x, x1), Error);   // swapped
  EXPECT_THROW(dfg.tie_loop(x1, k), Error);   // port-resident init
  dfg.tie_loop(x1, x);
  EXPECT_EQ(dfg.loop_ties().size(), 1u);
  EXPECT_THROW(dfg.tie_loop(x1, x), Error);   // duplicate
}

TEST(LoopTies, ParserRoundTrip) {
  auto parsed = parse_dfg(R"(
dfg acc
input s
portinput k
op add1 + s k -> s1 @1
output s1
carry s1 s
)");
  ASSERT_EQ(parsed.dfg.loop_ties().size(), 1u);
  const std::string printed = print_dfg(parsed.dfg, &*parsed.schedule);
  EXPECT_NE(printed.find("carry s1 s"), std::string::npos);
  auto reparsed = parse_dfg(printed);
  EXPECT_EQ(reparsed.dfg.loop_ties().size(), 1u);
}

TEST(AllocationUnits, TiedPairsMerge) {
  auto bench = make_paulin_loop();
  auto units = allocation_units(bench.design.dfg);
  int pairs = 0;
  for (const auto& u : units) pairs += u.vars.size() == 2 ? 1 : 0;
  EXPECT_EQ(pairs, 3);  // x/x1, u/u1, y/y1
}

TEST(LoopBinder, TiedVariablesShareARegister) {
  auto bench = make_paulin_loop();
  const Dfg& dfg = bench.design.dfg;
  auto lt = compute_lifetimes(dfg, *bench.design.schedule);
  auto rb = bind_registers_loop_aware(dfg, lt);
  rb.validate(dfg, lt);
  for (const auto& [carried, init] : dfg.loop_ties()) {
    EXPECT_EQ(rb.reg_of[carried], rb.reg_of[init])
        << dfg.var(carried).name;
  }
  // The classic HAL answer: around 6 registers with the loop variables
  // allocated (vs 4 + dedicated inputs in the paper's straight-line view).
  EXPECT_GE(rb.num_regs(), 5u);
  EXPECT_LE(rb.num_regs(), 7u);
}

TEST(LoopBinder, RejectsOverlappingTies) {
  // x1 is produced in step 1 but x is still needed in step 2: they cannot
  // share a register.
  auto parsed = parse_dfg(R"(
dfg bad
input x
portinput k
op add1 + x k -> x1 @1
op mul1 * x x1 -> y @2
output x1 y
carry x1 x
)");
  auto lt = compute_lifetimes(parsed.dfg, *parsed.schedule);
  EXPECT_THROW((void)bind_registers_loop_aware(parsed.dfg, lt), Error);
}

TEST(LoopBinder, DatapathExecutesOneIterationCorrectly) {
  auto bench = make_paulin_loop();
  const Dfg& dfg = bench.design.dfg;
  auto lt = compute_lifetimes(dfg, *bench.design.schedule);
  auto rb = bind_registers_loop_aware(dfg, lt);
  auto mb = ModuleBinding::bind(dfg, *bench.design.schedule,
                                parse_module_spec(bench.module_spec));
  auto dp = build_datapath(dfg, mb, rb);
  auto ctl = Controller::generate(dfg, *bench.design.schedule, rb, dp, lt);

  IdMap<VarId, std::uint32_t> inputs(dfg.num_vars(), 0);
  inputs[*dfg.find_var("x")] = 1;
  inputs[*dfg.find_var("u")] = 5;
  inputs[*dfg.find_var("y")] = 2;
  inputs[*dfg.find_var("dx")] = 3;
  inputs[*dfg.find_var("a")] = 10;
  inputs[*dfg.find_var("c3")] = 3;
  auto sim = simulate_datapath(dfg, dp, ctl, inputs, 8);
  EXPECT_TRUE(sim.ok());
  // x1 = x + dx = 4; y1 = y + u*dx = 17.
  EXPECT_EQ(sim.observed[*dfg.find_var("x1")], 4u);
  EXPECT_EQ(sim.observed[*dfg.find_var("y1")], 17u);
}

TEST(LoopBinder, LoopsCreateSelfAdjacency) {
  // The straight-line Paulin has loop state outside the allocation; the
  // looped version must write x1 into x's register — the adder reads and
  // writes the same register: self-adjacent.
  auto bench = make_paulin_loop();
  const Dfg& dfg = bench.design.dfg;
  auto lt = compute_lifetimes(dfg, *bench.design.schedule);
  auto rb = bind_registers_loop_aware(dfg, lt);
  auto mb = ModuleBinding::bind(dfg, *bench.design.schedule,
                                parse_module_spec(bench.module_spec));
  auto dp = build_datapath(dfg, mb, rb);
  EXPECT_FALSE(dp.self_adjacent_registers().empty());
  // BIST still solvable; the extra area reflects the loop's cost.
  BistAllocator alloc{AreaModel{}};
  auto sol = alloc.solve(dp);
  EXPECT_TRUE(sol.untestable_modules.empty());
  EXPECT_GT(sol.extra_area, 0.0);
}

TEST(LoopBinder, MultiIterationSimulationTracksReference) {
  auto bench = make_paulin_loop();
  const Dfg& dfg = bench.design.dfg;
  auto lt = compute_lifetimes(dfg, *bench.design.schedule);
  auto rb = bind_registers_loop_aware(dfg, lt);
  auto mb = ModuleBinding::bind(dfg, *bench.design.schedule,
                                parse_module_spec(bench.module_spec));
  auto dp = build_datapath(dfg, mb, rb);
  auto ctl = Controller::generate(dfg, *bench.design.schedule, rb, dp, lt);

  IdMap<VarId, std::uint32_t> inputs(dfg.num_vars(), 0);
  inputs[*dfg.find_var("x")] = 1;
  inputs[*dfg.find_var("u")] = 5;
  inputs[*dfg.find_var("y")] = 2;
  inputs[*dfg.find_var("dx")] = 3;
  inputs[*dfg.find_var("a")] = 10;
  inputs[*dfg.find_var("c3")] = 3;
  auto iters = simulate_datapath_loop(dfg, dp, ctl, inputs, 8, 4);
  ASSERT_EQ(iters.size(), 4u);
  for (const auto& r : iters) EXPECT_TRUE(r.ok());
  // x advances by dx every iteration: 1 -> 4 -> 7 -> 10 -> 13.
  EXPECT_EQ(iters[0].observed[*dfg.find_var("x1")], 4u);
  EXPECT_EQ(iters[1].observed[*dfg.find_var("x1")], 7u);
  EXPECT_EQ(iters[2].observed[*dfg.find_var("x1")], 10u);
  EXPECT_EQ(iters[3].observed[*dfg.find_var("x1")], 13u);
  // The loop-exit compare fires once x1 >= a (x1 = 13 on the last lap).
  EXPECT_EQ(iters[2].observed[*dfg.find_var("c")], 0u);   // 10 < 10 is false
  EXPECT_EQ(iters[1].observed[*dfg.find_var("c")], 1u);   // 7 < 10
}

TEST(LoopBinder, RegisterCountNearCliqueBound) {
  // The unit-conflict graph may be non-chordal; Bron-Kerbosch gives the
  // exact lower bound and the greedy binder should stay within +1.
  auto bench = make_paulin_loop();
  const Dfg& dfg = bench.design.dfg;
  auto lt = compute_lifetimes(dfg, *bench.design.schedule);
  auto units = allocation_units(dfg);
  UndirectedGraph g(units.size());
  for (std::size_t a = 0; a < units.size(); ++a) {
    for (std::size_t b = a + 1; b < units.size(); ++b) {
      bool conflict = false;
      for (VarId va : units[a].vars) {
        for (VarId vb : units[b].vars) {
          conflict = conflict || lt[va].overlaps(lt[vb]);
        }
      }
      if (conflict) g.add_edge(a, b);
    }
  }
  const std::size_t bound = max_clique_size(g);
  auto rb = bind_registers_loop_aware(dfg, lt);
  EXPECT_GE(rb.num_regs(), bound);
  EXPECT_LE(rb.num_regs(), bound + 1);
}

}  // namespace
}  // namespace lbist
