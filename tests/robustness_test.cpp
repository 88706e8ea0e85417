// Error-path coverage: every layer's input validation fires with a clear
// message instead of corrupting state.

#include <gtest/gtest.h>

#include "baselines/ralloc.hpp"
#include "baselines/syntest.hpp"
#include "binding/bist_aware_binder.hpp"
#include "binding/clique_binder.hpp"
#include "binding/enumerate.hpp"
#include "binding/module_binding.hpp"
#include "bist/aliasing.hpp"
#include "bist/verilog_bist.hpp"
#include "core/synthesizer.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random_dfg.hpp"
#include "graph/conflict.hpp"
#include "interconnect/build_datapath.hpp"
#include "rtl/controller.hpp"
#include "sched/asap_alap.hpp"
#include "support/check.hpp"

namespace lbist {
namespace {

TEST(Robustness, DfgOperandValidation) {
  Dfg dfg("bad");
  VarId a = dfg.add_input("a");
  EXPECT_THROW(dfg.add_op(OpKind::Add, a, VarId{99}, "r"), Error);
  EXPECT_THROW(dfg.add_op(OpKind::Add, VarId{}, a, "r"), Error);
}

TEST(Robustness, DuplicateOpNamesRejected) {
  Dfg dfg("dup");
  VarId a = dfg.add_input("a");
  dfg.add_op(OpKind::Add, a, a, "r1", "op1");
  EXPECT_THROW(dfg.add_op(OpKind::Add, a, a, "r2", "op1"), Error);
}

TEST(Robustness, ScheduleMustCoverEveryOp) {
  auto bench = make_ex1();
  IdMap<OpId, int> too_small(2, 1);
  EXPECT_THROW(Schedule(bench.design.dfg, std::move(too_small)), Error);
}

TEST(Robustness, ScheduleStepsArePositive) {
  Dfg dfg("steps");
  VarId a = dfg.add_input("a");
  VarId r = dfg.add_op(OpKind::Add, a, a, "r");
  dfg.mark_output(r);
  IdMap<OpId, int> steps(1, 0);
  EXPECT_THROW(Schedule(dfg, std::move(steps)), Error);
}

TEST(Robustness, IntervalBindersRejectGraphWithoutIntervals) {
  // A conflict graph assembled by hand with vertices but no live intervals:
  // every binder that reads the intervals refuses it instead of binding
  // variables it knows nothing about.
  Dfg dfg("bare");
  VarId in = dfg.add_input("seed");
  VarId prev = in;
  for (int i = 0; i < 4; ++i) {
    prev = dfg.add_op(OpKind::Add, prev, in, "v" + std::to_string(i));
  }
  dfg.mark_output(prev);
  const Schedule sched = asap_schedule(dfg);
  const VarConflictGraph full =
      build_conflict_graph(dfg, compute_lifetimes(dfg, sched));
  VarConflictGraph bare = full;
  bare.intervals.clear();
  auto mb = ModuleBinding::bind(dfg, sched, minimal_module_spec(dfg, sched));
  EXPECT_THROW((void)bind_registers_bist_aware(dfg, bare, mb), Error);
  EXPECT_THROW((void)bind_registers_clique(dfg, bare, mb), Error);
  EXPECT_THROW((void)bind_registers_ralloc(dfg, bare, mb), Error);
  EXPECT_THROW((void)bind_registers_syntest(dfg, bare, mb), Error);
  EXPECT_THROW((void)enumerate_bindings(
                   dfg, bare, 4, [](const RegisterBinding&) { return true; }),
               Error);
  EXPECT_NO_THROW((void)bind_registers_bist_aware(dfg, full, mb));
}

TEST(Robustness, FarControlStepsSynthesize) {
  // ex1 with its last operation at step 2,000,000,000: lifetimes reach the
  // int range, so nothing on the synthesis path may size scratch by step.
  const Benchmark bench = make_ex1();
  const Dfg& dfg = bench.design.dfg;
  const Schedule& near = *bench.design.schedule;
  IdMap<OpId, int> steps(dfg.num_ops());
  OpId last{0};
  for (const Operation& op : dfg.ops()) {
    steps[op.id] = near.step(op.id);
    if (steps[op.id] > steps[last]) last = op.id;
  }
  steps[last] = 2000000000;
  const Schedule far(dfg, std::move(steps));
  const auto spec = parse_module_spec(bench.module_spec);
  const SynthesisResult got = Synthesizer().run(dfg, far, spec);
  const SynthesisResult want = Synthesizer().run(dfg, near, spec);
  EXPECT_EQ(got.describe(dfg), want.describe(dfg));
  EXPECT_NEAR(got.overhead_percent, 9.49367, 1e-5);
}

TEST(Robustness, BuildDatapathRequiresCompleteBinding) {
  auto bench = make_ex1();
  auto lt = compute_lifetimes(bench.design.dfg, *bench.design.schedule);
  auto cg = build_conflict_graph(bench.design.dfg, lt);
  auto mb = ModuleBinding::bind(bench.design.dfg, *bench.design.schedule,
                                parse_module_spec(bench.module_spec));
  RegisterBinding empty;
  empty.reg_of.assign(bench.design.dfg.num_vars(), RegId::invalid());
  EXPECT_THROW((void)build_datapath(bench.design.dfg, mb, empty), Error);
}

TEST(Robustness, AreaModelUnknownWidthsInLfsr) {
  EXPECT_THROW((void)misr_aliasing_empirical(8, 0, 10, 1), Error);
  EXPECT_THROW((void)misr_width_for_escape_probability(0.0), Error);
  EXPECT_THROW((void)misr_width_for_escape_probability(1.5), Error);
}

TEST(Robustness, SynthesizerSurfacesSpecErrors) {
  auto bench = make_ex2();
  SynthesisOptions opts;
  EXPECT_THROW((void)Synthesizer(opts).run(bench.design.dfg,
                                           *bench.design.schedule,
                                           parse_module_spec("1+")),
               Error);
}

TEST(Robustness, AlapRejectsImpossibleDeadline) {
  auto bench = make_ex1();
  EXPECT_THROW((void)alap_steps(bench.design.dfg, 1), Error);
}

TEST(Robustness, RandomDfgOptionValidation) {
  RandomDfgOptions opts;
  opts.num_inputs = 1;
  EXPECT_THROW((void)make_random_dfg(opts), Error);
  opts = RandomDfgOptions{};
  opts.kinds.clear();
  EXPECT_THROW((void)make_random_dfg(opts), Error);
}

}  // namespace
}  // namespace lbist
