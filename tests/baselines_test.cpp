// Unit tests for the RALLOC- and SYNTEST-style baselines.

#include <gtest/gtest.h>

#include "baselines/ralloc.hpp"
#include "baselines/syntest.hpp"
#include "binding/traditional_binder.hpp"
#include "core/synthesizer.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/lifetime.hpp"
#include "graph/chordal.hpp"
#include "graph/conflict.hpp"
#include "graph/interval.hpp"
#include "interconnect/build_datapath.hpp"

namespace lbist {
namespace {

struct Fixture {
  explicit Fixture(Benchmark b) : bench(std::move(b)) {
    lt = compute_lifetimes(bench.design.dfg, *bench.design.schedule);
    cg = build_conflict_graph(bench.design.dfg, lt);
    mb = ModuleBinding::bind(bench.design.dfg, *bench.design.schedule,
                             parse_module_spec(bench.module_spec));
  }
  Benchmark bench;
  IdMap<VarId, LiveInterval> lt;
  VarConflictGraph cg;
  ModuleBinding mb;
};

TEST(Ralloc, ProducesValidBinding) {
  for (const auto& b : paper_benchmarks()) {
    Fixture f(b);
    auto rb = bind_registers_ralloc(f.bench.design.dfg, f.cg, f.mb);
    rb.validate(f.bench.design.dfg, f.lt);
    EXPECT_GE(rb.num_regs(),
              chordal_clique_number(interval_graph(f.cg.live_intervals())))
        << b.name;
  }
}

TEST(Ralloc, LabellingMakesEveryAdjacentRegisterABilbo) {
  Fixture f(make_ex1());
  auto rb = bind_registers_ralloc(f.bench.design.dfg, f.cg, f.mb);
  auto dp = build_datapath(f.bench.design.dfg, f.mb, rb);
  AreaModel model;
  auto sol = ralloc_bist_labelling(dp, model);
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    // ex1 has no idle registers: everything touches a module.
    EXPECT_TRUE(sol.roles[r] == BistRole::TpgSa ||
                sol.roles[r] == BistRole::Cbilbo);
  }
  // Self-adjacent registers are exactly the CBILBOs.
  auto self_adj = dp.self_adjacent_registers();
  EXPECT_EQ(static_cast<int>(self_adj.size()), sol.counts().cbilbo);
}

TEST(Ralloc, AvoidsSelfAdjacencyWhenPossible) {
  Fixture f(make_ex1());
  auto rb = bind_registers_ralloc(f.bench.design.dfg, f.cg, f.mb);
  auto dp = build_datapath(f.bench.design.dfg, f.mb, rb);
  // The style may pay registers to reduce self-adjacency; it should never
  // have MORE self-adjacent registers than the testability-oblivious
  // traditional binding.
  auto rb_trad = bind_registers_traditional(f.bench.design.dfg, f.cg, f.lt);
  auto dp_trad = build_datapath(f.bench.design.dfg, f.mb, rb_trad);
  EXPECT_LE(dp.self_adjacent_registers().size(),
            dp_trad.self_adjacent_registers().size());
}

TEST(Syntest, ProducesValidBinding) {
  for (const auto& b : paper_benchmarks()) {
    Fixture f(b);
    auto rb = bind_registers_syntest(f.bench.design.dfg, f.cg, f.mb);
    rb.validate(f.bench.design.dfg, f.lt);
  }
}

TEST(Syntest, NoCbilboEver) {
  for (const auto& b : paper_benchmarks()) {
    Fixture f(b);
    auto rb = bind_registers_syntest(f.bench.design.dfg, f.cg, f.mb);
    auto dp = build_datapath(f.bench.design.dfg, f.mb, rb);
    AreaModel model;
    auto sol = syntest_bist_labelling(dp, model);
    EXPECT_EQ(sol.counts().cbilbo, 0) << b.name;
  }
}

TEST(Syntest, UsesMoreRegistersThanMinimumOnPaulin) {
  // The template costs registers — the effect Table III shows (SYNTEST: 5
  // registers where ours needs 4).
  Fixture f(make_paulin());
  auto rb = bind_registers_syntest(f.bench.design.dfg, f.cg, f.mb);
  EXPECT_GT(rb.num_regs(),
            chordal_clique_number(interval_graph(f.cg.live_intervals())));
}

TEST(Baselines, PipelineIntegration) {
  auto bench = make_paulin();
  const auto protos = parse_module_spec(bench.module_spec);
  for (BinderKind kind : {BinderKind::Ralloc, BinderKind::Syntest}) {
    SynthesisOptions opts;
    opts.binder = kind;
    auto result = Synthesizer(opts).run(bench.design.dfg,
                                        *bench.design.schedule, protos);
    EXPECT_GE(result.num_registers(), 4);
    EXPECT_GT(result.bist.extra_area, 0.0);
  }
}

}  // namespace
}  // namespace lbist
