// Controller generation and cycle-level data-path simulation tests.
//
// The headline property: for every benchmark, every binder style and many
// input vectors, executing the generated control words on the structural
// netlist reproduces the DFG's reference semantics exactly.  This is the
// end-to-end proof that binding + interconnect + controller are mutually
// consistent (a wrong merge or mux select cannot hide).

#include <gtest/gtest.h>

#include <random>

#include "baselines/ralloc.hpp"
#include "baselines/syntest.hpp"
#include "binding/bist_aware_binder.hpp"
#include "binding/clique_binder.hpp"
#include "binding/traditional_binder.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random_dfg.hpp"
#include "graph/conflict.hpp"
#include "interconnect/build_datapath.hpp"
#include "rtl/controller.hpp"
#include "rtl/simulate.hpp"
#include "sched/list_sched.hpp"

namespace lbist {
namespace {

constexpr int kWidth = 8;

IdMap<VarId, std::uint32_t> random_inputs(const Dfg& dfg,
                                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint32_t> dist(0, 255);
  IdMap<VarId, std::uint32_t> inputs(dfg.num_vars(), 0);
  for (const auto& v : dfg.vars()) {
    if (v.is_input()) inputs[v.id] = dist(rng);
  }
  return inputs;
}

void check_simulation(const Dfg& dfg, const Schedule& sched,
                      const std::vector<ModuleProto>& protos,
                      const RegisterBinding& rb, std::uint64_t seeds = 5) {
  auto lt = compute_lifetimes(dfg, sched);
  auto mb = ModuleBinding::bind(dfg, sched, protos);
  auto dp = build_datapath(dfg, mb, rb);
  auto ctl = Controller::generate(dfg, sched, rb, dp, lt);
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    auto result =
        simulate_datapath(dfg, dp, ctl, random_inputs(dfg, s), kWidth);
    ASSERT_TRUE(result.ok())
        << dfg.name() << ": first mismatch on variable "
        << dfg.var(result.mismatches.front()).name;
  }
}

TEST(EvalOp, MatchesExpectedSemantics) {
  EXPECT_EQ(eval_op(OpKind::Add, 200, 100, 8), (200u + 100u) & 0xFF);
  EXPECT_EQ(eval_op(OpKind::Sub, 3, 5, 8), (3u - 5u) & 0xFF);
  EXPECT_EQ(eval_op(OpKind::Mul, 20, 20, 8), 400u & 0xFF);
  EXPECT_EQ(eval_op(OpKind::Div, 20, 3, 8), 6u);
  EXPECT_EQ(eval_op(OpKind::Div, 20, 0, 8), 0u);  // hardware convention
  EXPECT_EQ(eval_op(OpKind::Lt, 3, 5, 8), 1u);
  EXPECT_EQ(eval_op(OpKind::Gt, 3, 5, 8), 0u);
  EXPECT_EQ(eval_op(OpKind::Xor, 0xF0, 0x0F, 8), 0xFFu);
}

TEST(EvaluateDfg, Ex1Reference) {
  auto bench = make_ex1();
  const Dfg& dfg = bench.design.dfg;
  IdMap<VarId, std::uint32_t> inputs(dfg.num_vars(), 0);
  inputs[*dfg.find_var("a")] = 3;
  inputs[*dfg.find_var("b")] = 4;
  inputs[*dfg.find_var("c")] = 5;
  inputs[*dfg.find_var("e")] = 2;
  auto values = evaluate_dfg(dfg, inputs, kWidth);
  // d=7, f=12, g=24, h=7*24=168.
  EXPECT_EQ(values[*dfg.find_var("d")], 7u);
  EXPECT_EQ(values[*dfg.find_var("f")], 12u);
  EXPECT_EQ(values[*dfg.find_var("g")], 24u);
  EXPECT_EQ(values[*dfg.find_var("h")], 168u);
}

TEST(Controller, WordZeroLoadsEarlyInputs) {
  auto bench = make_ex1();
  const Dfg& dfg = bench.design.dfg;
  auto lt = compute_lifetimes(dfg, *bench.design.schedule);
  auto cg = build_conflict_graph(dfg, lt);
  auto mb = ModuleBinding::bind(dfg, *bench.design.schedule,
                                parse_module_spec(bench.module_spec));
  auto rb = bind_registers_bist_aware(dfg, cg, mb);
  auto dp = build_datapath(dfg, mb, rb);
  auto ctl = Controller::generate(dfg, *bench.design.schedule, rb, dp, lt);
  EXPECT_EQ(ctl.num_steps(), 4);
  // a and b (birth 0) load in word 0.
  int loads = 0;
  for (const auto& rc : ctl.word(0).regs) loads += rc.enable ? 1 : 0;
  EXPECT_EQ(loads, 2);
  // Each of steps 1..4 runs exactly one operation.
  for (int s = 1; s <= 4; ++s) {
    int active = 0;
    for (const auto& mc : ctl.word(s).modules) active += mc.active ? 1 : 0;
    EXPECT_EQ(active, 1) << "step " << s;
  }
}

TEST(Controller, DedicatedRegistersPreloadInWordZero) {
  auto bench = make_paulin();
  const Dfg& dfg = bench.design.dfg;
  auto lt = compute_lifetimes(dfg, *bench.design.schedule);
  auto cg = build_conflict_graph(dfg, lt);
  auto mb = ModuleBinding::bind(dfg, *bench.design.schedule,
                                parse_module_spec(bench.module_spec));
  auto rb = bind_registers_bist_aware(dfg, cg, mb);
  auto dp = build_datapath(dfg, mb, rb);
  auto ctl = Controller::generate(dfg, *bench.design.schedule, rb, dp, lt);
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    if (dp.registers[r].dedicated_input) {
      EXPECT_TRUE(ctl.word(0).regs[r].enable) << dp.registers[r].name;
    }
  }
}

class SimAllBenchmarks : public ::testing::TestWithParam<int> {};

TEST_P(SimAllBenchmarks, EveryBinderExecutesCorrectly) {
  auto benches = paper_benchmarks();
  const auto& bench = benches[static_cast<std::size_t>(GetParam())];
  const Dfg& dfg = bench.design.dfg;
  const Schedule& sched = *bench.design.schedule;
  const auto protos = parse_module_spec(bench.module_spec);
  auto lt = compute_lifetimes(dfg, sched);
  auto cg = build_conflict_graph(dfg, lt);
  auto mb = ModuleBinding::bind(dfg, sched, protos);

  check_simulation(dfg, sched, protos, bind_registers_traditional(dfg, cg, lt));
  // Every BistBinderOptions switch off: first-fit in reverse PVES order.
  const BistBinderOptions first_fit{false, false, false, false};
  check_simulation(dfg, sched, protos,
                   bind_registers_bist_aware(dfg, cg, mb, first_fit));
  check_simulation(dfg, sched, protos, bind_registers_bist_aware(dfg, cg, mb));
  check_simulation(dfg, sched, protos, bind_registers_ralloc(dfg, cg, mb));
  check_simulation(dfg, sched, protos, bind_registers_syntest(dfg, cg, mb));
  check_simulation(dfg, sched, protos, bind_registers_clique(dfg, cg, mb));
}

INSTANTIATE_TEST_SUITE_P(AllFive, SimAllBenchmarks, ::testing::Range(0, 5));

TEST(Simulation, RandomDesignsExecuteCorrectly) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    RandomDfgOptions opts;
    opts.seed = seed;
    auto rd = make_random_dfg(opts);
    auto protos = minimal_module_spec(rd.dfg, rd.schedule);
    auto lt = compute_lifetimes(rd.dfg, rd.schedule);
    auto cg = build_conflict_graph(rd.dfg, lt);
    auto mb = ModuleBinding::bind(rd.dfg, rd.schedule, protos);
    check_simulation(rd.dfg, rd.schedule, protos,
                     bind_registers_bist_aware(rd.dfg, cg, mb), 3);
    check_simulation(rd.dfg, rd.schedule, protos,
                     bind_registers_traditional(rd.dfg, cg, lt), 3);
  }
}

TEST(Simulation, FirFilterComputesConvolution) {
  Dfg fir = make_fir(4);
  Schedule sched = list_schedule(fir, {{OpKind::Mul, 2}, {OpKind::Add, 1}});
  auto protos = minimal_module_spec(fir, sched);
  auto lt = compute_lifetimes(fir, sched);
  auto cg = build_conflict_graph(fir, lt);
  auto mb = ModuleBinding::bind(fir, sched, protos);
  auto rb = bind_registers_bist_aware(fir, cg, mb);
  auto dp = build_datapath(fir, mb, rb);
  auto ctl = Controller::generate(fir, sched, rb, dp, lt);

  IdMap<VarId, std::uint32_t> inputs(fir.num_vars(), 0);
  std::uint32_t expected = 0;
  for (int i = 0; i < 4; ++i) {
    const std::uint32_t x = static_cast<std::uint32_t>(i + 1);
    const std::uint32_t c = static_cast<std::uint32_t>(2 * i + 1);
    inputs[*fir.find_var("x" + std::to_string(i))] = x;
    inputs[*fir.find_var("c" + std::to_string(i))] = c;
    expected = (expected + x * c) & 0xFF;
  }
  auto result = simulate_datapath(fir, dp, ctl, inputs, kWidth);
  ASSERT_TRUE(result.ok());
  // The final adder output is the single primary output.
  for (const auto& v : fir.vars()) {
    if (v.is_output) {
      EXPECT_EQ(result.observed[v.id], expected);
    }
  }
}

TEST(Simulation, BiquadAndLatticeBenchesExecute) {
  for (Dfg dfg : {make_biquad_cascade(2), make_lattice(3)}) {
    Schedule sched =
        list_schedule(dfg, {{OpKind::Mul, 2}, {OpKind::Add, 1}});
    auto protos = minimal_module_spec(dfg, sched);
    auto lt = compute_lifetimes(dfg, sched);
    auto cg = build_conflict_graph(dfg, lt);
    auto mb = ModuleBinding::bind(dfg, sched, protos);
    check_simulation(dfg, sched, protos,
                     bind_registers_bist_aware(dfg, cg, mb), 3);
  }
}

}  // namespace
}  // namespace lbist
