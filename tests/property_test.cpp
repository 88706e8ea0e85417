// Property-based tests on randomly generated scheduled DFGs:
//  * both binders always produce valid bindings with the minimum register
//    count (reverse-PVES coloring on a chordal graph cannot exceed the
//    clique number, whatever the color-choice rule),
//  * the Lemma-2 CBILBO conditions agree with a brute-force oracle that
//    enumerates every BIST embedding of the built data path,
//  * the exact BIST allocator matches exhaustive enumeration on small
//    designs and never loses to the greedy allocator,
//  * the testable arm's overhead never exceeds the traditional arm's in
//    aggregate.

#include <gtest/gtest.h>

#include <numeric>

#include "binding/bist_aware_binder.hpp"
#include "binding/cbilbo_check.hpp"
#include "binding/traditional_binder.hpp"
#include "bist/allocator.hpp"
#include "core/synthesizer.hpp"
#include "dfg/parse.hpp"
#include "dfg/random_dfg.hpp"
#include "graph/chordal.hpp"
#include "graph/conflict.hpp"
#include "graph/interval.hpp"
#include "interconnect/build_datapath.hpp"
#include "rtl/ipath.hpp"

namespace lbist {
namespace {

RandomDfgOptions commutative_opts(std::uint64_t seed) {
  RandomDfgOptions opts;
  opts.seed = seed;
  opts.kinds = {OpKind::Add, OpKind::Mul, OpKind::And};  // Lemma 2's setting
  return opts;
}

struct BuiltRandom {
  RandomDfg rd;
  IdMap<VarId, LiveInterval> lt;
  VarConflictGraph cg;
  ModuleBinding mb;

  explicit BuiltRandom(const RandomDfgOptions& opts)
      : rd(make_random_dfg(opts)),
        lt(compute_lifetimes(rd.dfg, rd.schedule)),
        cg(build_conflict_graph(rd.dfg, lt)),
        mb(ModuleBinding::bind(rd.dfg, rd.schedule,
                               minimal_module_spec(rd.dfg, rd.schedule))) {}
};

class RandomDesigns : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDesigns, ConflictGraphsAreChordal) {
  BuiltRandom b(commutative_opts(GetParam()));
  EXPECT_TRUE(is_chordal(interval_graph(b.cg.live_intervals())));
}

TEST_P(RandomDesigns, BothBindersValidAndMinimum) {
  BuiltRandom b(commutative_opts(GetParam()));
  const std::size_t minimum =
      chordal_clique_number(interval_graph(b.cg.live_intervals()));

  auto trad = bind_registers_traditional(b.rd.dfg, b.cg, b.lt);
  trad.validate(b.rd.dfg, b.lt);
  EXPECT_EQ(trad.num_regs(), minimum);

  auto test = bind_registers_bist_aware(b.rd.dfg, b.cg, b.mb);
  test.validate(b.rd.dfg, b.lt);
  EXPECT_EQ(test.num_regs(), minimum);
}

TEST_P(RandomDesigns, Lemma2MatchesBruteForceOracle) {
  BuiltRandom b(commutative_opts(GetParam()));
  auto rb = bind_registers_traditional(b.rd.dfg, b.cg, b.lt);
  auto dp = build_datapath(b.rd.dfg, b.mb, rb);
  auto lemma = forced_cbilbos(b.mb, rb.reg_of);

  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    // The lemma's setting: binary commutative modules where every instance
    // reads two distinct registers.
    bool clean = true;
    for (OpId opid : b.mb.instances(
             ModuleId{static_cast<ModuleId::value_type>(m)})) {
      const auto& op = b.rd.dfg.op(opid);
      if (op.lhs == op.rhs || !is_commutative(op.kind)) clean = false;
      if (!b.rd.dfg.var(op.result).allocatable()) clean = false;
    }
    if (!clean) continue;

    auto embeddings = enumerate_embeddings(dp, m);
    if (embeddings.empty()) continue;
    const bool brute_forced =
        std::all_of(embeddings.begin(), embeddings.end(),
                    [](const BistEmbedding& e) { return e.needs_cbilbo(); });
    const bool lemma_forced =
        std::any_of(lemma.begin(), lemma.end(), [&](const ForcedCbilbo& f) {
          return f.module.index() == m;
        });
    EXPECT_EQ(lemma_forced, brute_forced)
        << "seed " << GetParam() << " module " << dp.modules[m].name;
  }
}

TEST_P(RandomDesigns, ExactAllocatorMatchesExhaustiveSearch) {
  // Small designs keep the exhaustive product tractable so the oracle
  // actually runs (larger seeds would all skip).
  RandomDfgOptions small = commutative_opts(GetParam());
  small.num_steps = 4;
  small.ops_per_step = 2;
  BuiltRandom b(small);
  auto rb = bind_registers_bist_aware(b.rd.dfg, b.cg, b.mb);
  auto dp = build_datapath(b.rd.dfg, b.mb, rb);

  AreaModel model;
  BistAllocator alloc(model);
  auto sol = alloc.solve(dp);

  // Exhaustive product over per-module embeddings (skip if too large).
  std::vector<std::vector<BistEmbedding>> all;
  double combos = 1;
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    all.push_back(enumerate_embeddings(dp, m));
    if (!all.back().empty()) {
      combos *= static_cast<double>(all.back().size());
    }
  }
  if (combos > 200000) GTEST_SKIP() << "search space too large";

  double best = 1e18;
  std::vector<std::size_t> pick(all.size(), 0);
  while (true) {
    std::vector<RoleFlags> flags(dp.registers.size());
    for (std::size_t m = 0; m < all.size(); ++m) {
      if (all[m].empty()) continue;
      const auto& e = all[m][pick[m]];
      flags[e.tpg_left].tpg = true;
      flags[e.tpg_right].tpg = true;
      if (e.sa.has_value()) {
        flags[*e.sa].sa = true;
        if (e.needs_cbilbo()) flags[*e.sa].cbilbo = true;
      }
    }
    double area = 0;
    for (const auto& f : flags) area += model.role_extra(f.role());
    best = std::min(best, area);
    // Odometer increment.
    std::size_t i = 0;
    for (; i < all.size(); ++i) {
      if (all[i].empty()) continue;
      if (++pick[i] < all[i].size()) break;
      pick[i] = 0;
    }
    if (i == all.size()) break;
  }
  EXPECT_NEAR(sol.extra_area, best, 1e-9) << "seed " << GetParam();
}

TEST_P(RandomDesigns, GreedyNeverBeatsExact) {
  BuiltRandom b(commutative_opts(GetParam()));
  auto rb = bind_registers_bist_aware(b.rd.dfg, b.cg, b.mb);
  auto dp = build_datapath(b.rd.dfg, b.mb, rb);
  BistAllocator alloc{AreaModel{}};
  EXPECT_LE(alloc.solve(dp).extra_area,
            alloc.solve_greedy(dp).extra_area + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDesigns,
                         ::testing::Range<std::uint64_t>(1, 26));

TEST_P(RandomDesigns, TextFormatRoundTripsExactly) {
  auto rd = make_random_dfg(commutative_opts(GetParam()));
  const std::string printed = print_dfg(rd.dfg, &rd.schedule);
  auto reparsed = parse_dfg(printed);
  ASSERT_TRUE(reparsed.schedule.has_value());
  EXPECT_EQ(print_dfg(reparsed.dfg, &*reparsed.schedule), printed);
}

TEST(AggregateProperty, TestableBeatsTraditionalOnAverage) {
  double trad_total = 0.0, test_total = 0.0;
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    RandomDfgOptions ropts = commutative_opts(seed);
    auto rd = make_random_dfg(ropts);
    auto protos = minimal_module_spec(rd.dfg, rd.schedule);

    SynthesisOptions trad;
    trad.binder = BinderKind::Traditional;
    SynthesisOptions test;
    test.binder = BinderKind::BistAware;
    trad_total +=
        Synthesizer(trad).run(rd.dfg, rd.schedule, protos).overhead_percent;
    test_total +=
        Synthesizer(test).run(rd.dfg, rd.schedule, protos).overhead_percent;
  }
  EXPECT_LE(test_total, trad_total + 1e-9);
}

TEST(AggregateProperty, AblationIngredientsNeverHurtInAggregate) {
  // Full heuristic vs everything-off across 15 seeds.
  double full_total = 0.0, off_total = 0.0;
  for (std::uint64_t seed = 200; seed < 215; ++seed) {
    auto rd = make_random_dfg(commutative_opts(seed));
    auto protos = minimal_module_spec(rd.dfg, rd.schedule);
    SynthesisOptions full;
    full.binder = BinderKind::BistAware;
    SynthesisOptions off;
    off.binder = BinderKind::BistAware;
    off.bist_binder.sd_ordered_pves = false;
    off.bist_binder.delta_sd_rule = false;
    off.bist_binder.case_overrides = false;
    off.bist_binder.avoid_cbilbo = false;
    full_total +=
        Synthesizer(full).run(rd.dfg, rd.schedule, protos).overhead_percent;
    off_total +=
        Synthesizer(off).run(rd.dfg, rd.schedule, protos).overhead_percent;
  }
  EXPECT_LE(full_total, off_total + 1e-9);
}

}  // namespace
}  // namespace lbist
