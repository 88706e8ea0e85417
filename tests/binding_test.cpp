// Unit tests for the binding library: module specs, module binding, sharing
// degrees, the Lemma-2 CBILBO conditions, the register file and both
// register binders.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "binding/bist_aware_binder.hpp"
#include "binding/cbilbo_check.hpp"
#include "binding/module_binding.hpp"
#include "binding/module_spec.hpp"
#include "binding/sharing.hpp"
#include "binding/traditional_binder.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/lifetime.hpp"
#include "dfg/random_dfg.hpp"
#include "fuzz/reference.hpp"
#include "graph/chordal.hpp"
#include "graph/conflict.hpp"
#include "graph/interval.hpp"
#include "obs/events.hpp"
#include "support/check.hpp"

namespace lbist {
namespace {

struct Ex1 {
  Benchmark bench = make_ex1();
  IdMap<VarId, LiveInterval> lt =
      compute_lifetimes(bench.design.dfg, *bench.design.schedule);
  VarConflictGraph cg = build_conflict_graph(bench.design.dfg, lt);
  ModuleBinding mb = ModuleBinding::bind(bench.design.dfg,
                                         *bench.design.schedule,
                                         parse_module_spec("1+,1*"));
  VarId v(const char* name) const {
    return *bench.design.dfg.find_var(name);
  }
};

TEST(ModuleSpec, ParsesCountsAndSymbols) {
  auto protos = parse_module_spec("1/,2*,2+,1&");
  ASSERT_EQ(protos.size(), 6u);
  EXPECT_EQ(protos[0].supports, std::vector<OpKind>{OpKind::Div});
  EXPECT_EQ(protos[1].supports, std::vector<OpKind>{OpKind::Mul});
  EXPECT_EQ(protos[2].supports, std::vector<OpKind>{OpKind::Mul});
  EXPECT_EQ(protos[5].supports, std::vector<OpKind>{OpKind::And});
}

TEST(ModuleSpec, ParsesAluSets) {
  auto protos = parse_module_spec("1+,3[-*/&|]");
  ASSERT_EQ(protos.size(), 4u);
  EXPECT_EQ(protos[1].supports.size(), 5u);
  EXPECT_TRUE(protos[1].supports_kind(OpKind::Div));
  EXPECT_FALSE(protos[1].supports_kind(OpKind::Add));
  EXPECT_EQ(protos[1].label(), "[-*/&|]");
}

TEST(ModuleSpec, RejectsGarbage) {
  EXPECT_THROW(parse_module_spec(""), Error);
  EXPECT_THROW(parse_module_spec("2"), Error);
  EXPECT_THROW(parse_module_spec("1%"), Error);
  EXPECT_THROW(parse_module_spec("1[+"), Error);
  EXPECT_THROW(parse_module_spec("1[]"), Error);
}

TEST(ModuleSpec, MinimalSpecCoversBusiestStep) {
  auto bench = make_ex2();
  auto protos =
      minimal_module_spec(bench.design.dfg, *bench.design.schedule);
  // ex2 runs two multiplies in step 1, everything else is 1-wide.
  int muls = 0;
  for (const auto& p : protos) {
    if (p.supports_kind(OpKind::Mul)) ++muls;
  }
  EXPECT_EQ(muls, 2);
}

TEST(ModuleBinding, Ex1SetsMatchPaper) {
  Ex1 f;
  // M1 = adder with instances add1, add2; M2 = multiplier with mul1, mul2.
  EXPECT_EQ(f.mb.num_modules(), 2u);
  EXPECT_EQ(f.mb.temporal_multiplicity(ModuleId{0}), 2u);
  EXPECT_EQ(f.mb.temporal_multiplicity(ModuleId{1}), 2u);
  // I_M1 = {a, b, c, d}, O_M1 = {d, f} — the paper's stated sets.
  const auto& i1 = f.mb.input_vars(ModuleId{0});
  for (const char* n : {"a", "b", "c", "d"}) {
    EXPECT_TRUE(i1.test(f.v(n).index())) << n;
  }
  EXPECT_EQ(i1.count(), 4u);
  const auto& o1 = f.mb.output_vars(ModuleId{0});
  EXPECT_TRUE(o1.test(f.v("d").index()));
  EXPECT_TRUE(o1.test(f.v("f").index()));
  EXPECT_EQ(o1.count(), 2u);
}

TEST(ModuleBinding, InstanceOperandsArePerInstance) {
  Ex1 f;
  // add1 reads {a,b}; add2 reads {c,d}.
  const auto& j0 = f.mb.instance_operands(ModuleId{0}, 0);
  EXPECT_TRUE(j0.test(f.v("a").index()));
  EXPECT_TRUE(j0.test(f.v("b").index()));
  EXPECT_EQ(j0.count(), 2u);
  const auto& j1 = f.mb.instance_operands(ModuleId{0}, 1);
  EXPECT_TRUE(j1.test(f.v("c").index()));
  EXPECT_TRUE(j1.test(f.v("d").index()));
}

TEST(ModuleBinding, ThrowsWhenSpecTooSmall) {
  auto bench = make_ex2();  // two muls in step 1
  EXPECT_THROW(ModuleBinding::bind(bench.design.dfg, *bench.design.schedule,
                                   parse_module_spec("1/,1*,2+,1&")),
               Error);
}

TEST(ModuleBinding, AluClusteringCoversMixedKinds) {
  auto bench = make_tseng2();
  auto mb = ModuleBinding::bind(bench.design.dfg, *bench.design.schedule,
                                parse_module_spec(bench.module_spec));
  EXPECT_EQ(mb.num_modules(), 4u);
  // Every op got a module.
  for (const auto& op : bench.design.dfg.ops()) {
    EXPECT_TRUE(mb.module_of(op.id).valid());
  }
}

TEST(Sharing, Ex1VariableDegreesMatchHandComputation) {
  Ex1 f;
  SharingAnalysis sa(f.bench.design.dfg, f.mb);
  // d ∈ I_M1, O_M1, I_M2 -> SD 3; f ∈ O_M1, I_M2 -> 2; g ∈ I_M2, O_M2 -> 2.
  EXPECT_EQ(sa.sd(f.v("a")), 1);
  EXPECT_EQ(sa.sd(f.v("b")), 1);
  EXPECT_EQ(sa.sd(f.v("c")), 1);
  EXPECT_EQ(sa.sd(f.v("d")), 3);
  EXPECT_EQ(sa.sd(f.v("e")), 1);
  EXPECT_EQ(sa.sd(f.v("f")), 2);
  EXPECT_EQ(sa.sd(f.v("g")), 2);
  EXPECT_EQ(sa.sd(f.v("h")), 1);
}

TEST(Sharing, RegisterSdIsUnionNotSum) {
  Ex1 f;
  SharingAnalysis sa(f.bench.design.dfg, f.mb);
  // {a, c} both only in I_M1: SD of the union is 1, not 2.
  DynBitset m = sa.mask(f.v("a"));
  m |= sa.mask(f.v("c"));
  EXPECT_EQ(SharingAnalysis::sd_of(m), 1);
  // {d} ∪ {h}: {I_M1, O_M1, I_M2} ∪ {O_M2} = 4.
  DynBitset m2 = sa.mask(f.v("d"));
  m2 |= sa.mask(f.v("h"));
  EXPECT_EQ(SharingAnalysis::sd_of(m2), 4);
}

TEST(CbilboCheck, CaseOneFires) {
  Ex1 f;
  const Dfg& dfg = f.bench.design.dfg;
  // Put the multiplier's outputs {g, h} AND an operand of every multiplier
  // instance into one register.  mul1 reads {e,f}, mul2 reads {d,g}.
  // R0 = {g, h, e}: holds all outputs, g covers mul2, e covers mul1.
  std::vector<DynBitset> masks(2, DynBitset(dfg.num_vars()));
  masks[0].set(f.v("g").index());
  masks[0].set(f.v("h").index());
  masks[0].set(f.v("e").index());
  masks[1].set(f.v("a").index());
  auto forced = forced_cbilbos(f.mb, masks);
  ASSERT_EQ(forced.size(), 1u);
  EXPECT_EQ(forced[0].reg, RegId{0});
  EXPECT_EQ(forced[0].module, ModuleId{1});
  EXPECT_EQ(forced[0].lemma_case, 1);
}

TEST(CbilboCheck, CaseTwoFiresSymmetrically) {
  Ex1 f;
  const Dfg& dfg = f.bench.design.dfg;
  // Outputs of M2 split: g in R0, h in R1; both registers hold an operand
  // of every instance of M2 (mul1 reads {e,f}, mul2 reads {d,g}).
  std::vector<DynBitset> masks(2, DynBitset(dfg.num_vars()));
  masks[0].set(f.v("g").index());  // covers mul2
  masks[0].set(f.v("e").index());  // covers mul1
  masks[1].set(f.v("h").index());
  masks[1].set(f.v("f").index());  // covers mul1
  masks[1].set(f.v("d").index());  // covers mul2
  auto forced = forced_cbilbos(f.mb, masks);
  ASSERT_EQ(forced.size(), 1u);
  EXPECT_EQ(forced[0].lemma_case, 2);
  EXPECT_EQ(forced[0].reg, RegId{0});
  EXPECT_EQ(forced[0].partner, RegId{1});
}

TEST(CbilboCheck, NoForcingWithFreeSaChoice) {
  Ex1 f;
  const Dfg& dfg = f.bench.design.dfg;
  // Outputs split across two registers but the second register holds no
  // operand of mul1 -> a CBILBO-free embedding exists.
  std::vector<DynBitset> masks(2, DynBitset(dfg.num_vars()));
  masks[0].set(f.v("g").index());
  masks[0].set(f.v("e").index());
  masks[1].set(f.v("h").index());  // no operands at all
  auto forced = forced_cbilbos(f.mb, masks);
  EXPECT_TRUE(forced.empty());
}

TEST(TraditionalBinder, MinimumRegistersOnAllBenchmarks) {
  for (const auto& bench : paper_benchmarks()) {
    auto lt = compute_lifetimes(bench.design.dfg, *bench.design.schedule);
    auto cg = build_conflict_graph(bench.design.dfg, lt);
    auto rb = bind_registers_traditional(bench.design.dfg, cg, lt);
    rb.validate(bench.design.dfg, lt);
    EXPECT_EQ(rb.num_regs(),
              chordal_clique_number(interval_graph(cg.live_intervals())))
        << bench.name;
  }
}

TEST(BistAwareBinder, MinimumRegistersOnAllBenchmarks) {
  for (const auto& bench : paper_benchmarks()) {
    auto lt = compute_lifetimes(bench.design.dfg, *bench.design.schedule);
    auto cg = build_conflict_graph(bench.design.dfg, lt);
    auto mb = ModuleBinding::bind(bench.design.dfg, *bench.design.schedule,
                                  parse_module_spec(bench.module_spec));
    auto rb = bind_registers_bist_aware(bench.design.dfg, cg, mb);
    rb.validate(bench.design.dfg, lt);
    // The paper reports the minimum register count on every benchmark.
    EXPECT_EQ(rb.num_regs(),
              chordal_clique_number(interval_graph(cg.live_intervals())))
        << bench.name;
  }
}

TEST(BistAwareBinder, NoForcedCbilboOnEx1) {
  Ex1 f;
  auto rb = bind_registers_bist_aware(f.bench.design.dfg, f.cg, f.mb);
  rb.validate(f.bench.design.dfg, f.lt);
  // The testable binding of ex1 admits a CBILBO-free Lemma-2 profile.
  EXPECT_TRUE(forced_cbilbos(f.bench.design.dfg, f.mb, rb).empty());
}

TEST(BistAwareBinder, TraceExplainsDecisions) {
  Ex1 f;
  AlgorithmEvents events;
  auto rb = bind_registers_bist_aware(f.bench.design.dfg, f.cg, f.mb, {},
                                      &events);
  // One assign line per variable, in coloring order, plus the one Case
  // override ex1 triggers.
  const std::vector<std::string> expected = {
      "assign d -> R1 (new register)",
      "assign f -> R2 (new register)",
      "assign g -> R2 (dSD=1)",
      "assign e -> R3 (new register)",
      "assign c -> R2 (dSD=1)",
      "case override: b prefers R2 over R3",
      "assign b -> R2 (dSD=0)",
      "assign a -> R3 (dSD=1)",
      "assign h -> R1 (dSD=1)"};
  EXPECT_EQ(binder_decision_lines(events.snapshot()), expected);
  EXPECT_EQ(rb.to_string(f.bench.design.dfg), "R1={d,h} R2={f,g,c,b} R3={e,a}");
}

TEST(BistAwareBinder, OptionsAreHonored) {
  // With everything off the binder degenerates to reverse-PVES first-fit,
  // i.e. it still produces a valid minimum binding.
  Ex1 f;
  BistBinderOptions off;
  off.sd_ordered_pves = false;
  off.delta_sd_rule = false;
  off.case_overrides = false;
  off.avoid_cbilbo = false;
  auto rb = bind_registers_bist_aware(f.bench.design.dfg, f.cg, f.mb, off);
  rb.validate(f.bench.design.dfg, f.lt);
  EXPECT_EQ(rb.num_regs(), 3u);
}

/// All 16 combinations of the binder's switches.
std::vector<BistBinderOptions> all_binder_options() {
  std::vector<BistBinderOptions> all;
  for (unsigned bits = 0; bits < 16; ++bits) {
    BistBinderOptions o;
    o.sd_ordered_pves = (bits & 1u) != 0;
    o.delta_sd_rule = (bits & 2u) != 0;
    o.case_overrides = (bits & 4u) != 0;
    o.avoid_cbilbo = (bits & 8u) != 0;
    all.push_back(o);
  }
  return all;
}

std::string options_name(const BistBinderOptions& o) {
  return std::string(o.sd_ordered_pves ? "P" : "-") +
         (o.delta_sd_rule ? "D" : "-") + (o.case_overrides ? "C" : "-") +
         (o.avoid_cbilbo ? "A" : "-");
}

/// The binder against the full-scan reference on one design: without a
/// sink and with a counters-only one (the SD-ordered scan), and, if
/// `recorded`, with a recording sink (the index-order scan).
void expect_matches_full_scan(const std::string& name, const Dfg& dfg,
                              const Schedule& sched,
                              const std::vector<ModuleProto>& protos,
                              const LifetimeOptions& lo,
                              const std::vector<BistBinderOptions>& options,
                              bool recorded) {
  const auto lt = compute_lifetimes(dfg, sched, lo);
  const VarConflictGraph cg = build_conflict_graph(dfg, lt);
  const ModuleBinding mb = ModuleBinding::bind(dfg, sched, protos);
  for (const BistBinderOptions& o : options) {
    const std::string at = name + " " + options_name(o);
    const RegisterBinding want = full_scan_bist_binding(dfg, cg, mb, o);
    EXPECT_EQ(bind_registers_bist_aware(dfg, cg, mb, o).regs, want.regs)
        << at;
    AlgorithmEvents counters(nullptr, /*keep_events=*/false);
    EXPECT_EQ(bind_registers_bist_aware(dfg, cg, mb, o, &counters).regs,
              want.regs)
        << at << ", counters-only sink";
    if (recorded) {
      AlgorithmEvents recording;
      EXPECT_EQ(bind_registers_bist_aware(dfg, cg, mb, o, &recording).regs,
                want.regs)
          << at << ", recording sink";
    }
  }
}

TEST(BistAwareBinder, MatchesFullScanReference) {
  const std::vector<BistBinderOptions> all = all_binder_options();
  for (const auto& bench : paper_benchmarks()) {
    for (const bool held : {true, false}) {
      expect_matches_full_scan(
          bench.name + (held ? " held" : " not held"), bench.design.dfg,
          *bench.design.schedule, parse_module_spec(bench.module_spec),
          LifetimeOptions{held}, all, /*recorded=*/true);
    }
  }
  // The scaling tier's shape (bench/bench_scaling.cpp): the 2k design under
  // every option set, the others under the defaults.
  for (const int ops : {1000, 2000, 5000, 10000}) {
    RandomDfgOptions o;
    o.seed = 424242;
    o.ops_per_step = 8;
    o.num_steps = ops / o.ops_per_step;
    o.num_inputs = 12;
    o.reuse_probability = 0.9;
    o.chain_probability = 0.3;
    const RandomDfg rd = make_random_dfg(o);
    expect_matches_full_scan(
        "random " + std::to_string(ops), rd.dfg, rd.schedule,
        minimal_module_spec(rd.dfg, rd.schedule), LifetimeOptions{false},
        ops == 2000 ? all : std::vector<BistBinderOptions>(1),
        /*recorded=*/ops == 1000);
  }
}

TEST(RegisterFile, BuildsTheBindingInAssignmentOrder) {
  Ex1 f;
  const Dfg& dfg = f.bench.design.dfg;
  RegisterFile file(dfg.num_vars());
  EXPECT_EQ(file.size(), 0u);
  file.assign(0, f.v("g"), f.lt[f.v("g")]);  // r == size() opens R1
  EXPECT_FALSE(file.fits(0, f.lt[f.v("d")]));  // d (1,4] meets g (3,4]
  EXPECT_TRUE(file.fits(0, f.lt[f.v("c")]));   // c (1,2] does not
  file.assign(0, f.v("c"), f.lt[f.v("c")]);
  file.assign(1, f.v("d"), f.lt[f.v("d")]);
  EXPECT_EQ(file.size(), 2u);
  const RegisterBinding& rb = file.binding();
  EXPECT_EQ(rb.regs[0], (std::vector<VarId>{f.v("g"), f.v("c")}));
  EXPECT_EQ(rb.reg_of[f.v("c")], RegId{0});
  EXPECT_EQ(rb.reg_of[f.v("d")], RegId{1});
  EXPECT_FALSE(rb.reg_of[f.v("a")].valid());
  EXPECT_THROW(file.assign(1, f.v("a"), LiveInterval{3, 3}), Error);
  EXPECT_EQ(file.take().to_string(dfg), "R1={g,c} R2={d}");
}

TEST(RegisterBinding, ValidateCatchesConflicts) {
  Ex1 f;
  RegisterBinding rb;
  rb.reg_of.assign(f.bench.design.dfg.num_vars(), RegId::invalid());
  rb.regs.resize(1);
  for (const auto& var : f.bench.design.dfg.vars()) {
    rb.regs[0].push_back(var.id);
    rb.reg_of[var.id] = RegId{0};
  }
  EXPECT_THROW(rb.validate(f.bench.design.dfg, f.lt), Error);
}

TEST(RegisterBinding, ToStringListsMembers) {
  Ex1 f;
  auto rb = bind_registers_traditional(f.bench.design.dfg, f.cg, f.lt);
  const std::string s = rb.to_string(f.bench.design.dfg);
  EXPECT_NE(s.find("R1={"), std::string::npos);
}

}  // namespace
}  // namespace lbist
