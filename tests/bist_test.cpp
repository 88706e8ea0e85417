// Unit tests for the BIST library: area model, role lattice, exact and
// greedy allocation, and test-session scheduling.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>

#include "bist/allocator.hpp"
#include "bist/area_model.hpp"
#include "bist/roles.hpp"
#include "bist/sessions.hpp"
#include "core/synthesizer.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random_dfg.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/reference.hpp"
#include "passes/pipeline.hpp"
#include "sched/list_sched.hpp"

namespace lbist {
namespace {

/// Same synthetic datapath as rtl_test's fig_datapath.
Datapath fig_datapath() {
  Datapath dp;
  dp.name = "fig";
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
  return dp;
}

TEST(Roles, FlagsMapToLattice) {
  EXPECT_EQ(RoleFlags{}.role(), BistRole::None);
  EXPECT_EQ((RoleFlags{true, false, false}).role(), BistRole::Tpg);
  EXPECT_EQ((RoleFlags{false, true, false}).role(), BistRole::Sa);
  EXPECT_EQ((RoleFlags{true, true, false}).role(), BistRole::TpgSa);
  EXPECT_EQ((RoleFlags{true, true, true}).role(), BistRole::Cbilbo);
}

TEST(Roles, EncodeDecodeRoundTrip) {
  for (std::uint8_t bits = 0; bits < 8; ++bits) {
    EXPECT_EQ(RoleFlags::decode(bits).encode(), bits);
  }
}

TEST(AreaModel, CbilboIsTwiceRegister) {
  AreaModel m;
  // The paper: CBILBO area ≈ 2x a normal register.
  EXPECT_NEAR(m.register_area() + m.role_extra(BistRole::Cbilbo),
              2.0 * m.register_area(), 1e-9);
}

TEST(AreaModel, RoleCostsAreMonotone) {
  AreaModel m;
  EXPECT_LT(m.role_extra(BistRole::None), m.role_extra(BistRole::Tpg));
  EXPECT_LT(m.role_extra(BistRole::Tpg), m.role_extra(BistRole::TpgSa));
  EXPECT_LT(m.role_extra(BistRole::TpgSa), m.role_extra(BistRole::Cbilbo));
}

TEST(AreaModel, ModuleAreas) {
  AreaModel m;
  const double add = m.module_area(ModuleProto{{OpKind::Add}});
  const double mul = m.module_area(ModuleProto{{OpKind::Mul}});
  EXPECT_GT(mul, add);  // multiplier is quadratic in width
  // ALU costs more than its largest member but less than the sum.
  const double alu = m.module_area(ModuleProto{{OpKind::Add, OpKind::Sub}});
  const double sub = m.module_area(ModuleProto{{OpKind::Sub}});
  EXPECT_GT(alu, sub);
  EXPECT_LT(alu, add + sub);
}

TEST(AreaModel, MuxAreaScalesWithInputs) {
  AreaModel m;
  EXPECT_EQ(m.mux_area(1), 0.0);
  EXPECT_GT(m.mux_area(3), m.mux_area(2));
}

TEST(AreaModel, FunctionalAreaCountsEverything) {
  AreaModel m;
  Datapath dp = fig_datapath();
  const double area = m.functional_area(dp);
  const double regs = 4 * m.register_area();
  const double mods = m.module_area(dp.modules[0].proto) +
                      m.module_area(dp.modules[1].proto);
  const double muxes = 2 * m.mux_area(2);
  EXPECT_NEAR(area, regs + mods + muxes, 1e-9);
}

TEST(Allocator, SharesTpgsAndSaAcrossModules) {
  // Optimal solution for the fig datapath: R1+R3 as shared TPGs, R4 as
  // shared SA — 3 modified registers, no CBILBO (the Fig. 3 argument).
  AreaModel model;
  BistAllocator alloc(model);
  Datapath dp = fig_datapath();
  auto sol = alloc.solve(dp);
  EXPECT_TRUE(sol.untestable_modules.empty());
  auto counts = sol.counts();
  EXPECT_EQ(counts.cbilbo, 0);
  EXPECT_EQ(counts.tpg, 2);
  EXPECT_EQ(counts.sa, 1);
  EXPECT_EQ(counts.modified(), 3);
  EXPECT_EQ(sol.roles[0], BistRole::Tpg);
  EXPECT_EQ(sol.roles[2], BistRole::Tpg);
  EXPECT_EQ(sol.roles[3], BistRole::Sa);
  EXPECT_NEAR(sol.extra_area,
              2 * model.role_extra(BistRole::Tpg) +
                  model.role_extra(BistRole::Sa),
              1e-9);
}

TEST(Allocator, CbilboWhenForced) {
  // Single module whose only destination is also its only left source.
  Datapath dp = fig_datapath();
  dp.modules.resize(1);
  dp.modules[0].left_sources = {0};
  dp.modules[0].right_sources = {2};
  dp.modules[0].dest_registers = {0};
  dp.registers[3].source_modules.clear();
  BistAllocator alloc{AreaModel{}};
  auto sol = alloc.solve(dp);
  auto counts = sol.counts();
  EXPECT_EQ(counts.cbilbo, 1);
  EXPECT_EQ(sol.roles[0], BistRole::Cbilbo);
}

TEST(Allocator, BilboWhenTpgForOneSaForAnother) {
  // M1: R1,R2 -> R3;  M2: R3,R4 -> R5.  R3 is SA for M1 and TPG for M2.
  Datapath dp;
  dp.num_allocated = 5;
  for (int i = 1; i <= 5; ++i) {
    DpRegister r;
    r.name = "R" + std::to_string(i);
    dp.registers.push_back(r);
  }
  DpModule m1;
  m1.proto = ModuleProto{{OpKind::Add}};
  m1.name = "M1";
  m1.left_sources = {0};
  m1.right_sources = {1};
  m1.dest_registers = {2};
  DpModule m2;
  m2.proto = ModuleProto{{OpKind::Add}};
  m2.name = "M2";
  m2.left_sources = {2};
  m2.right_sources = {3};
  m2.dest_registers = {4};
  dp.modules = {m1, m2};
  BistAllocator alloc{AreaModel{}};
  auto sol = alloc.solve(dp);
  EXPECT_EQ(sol.roles[2], BistRole::TpgSa);
  EXPECT_EQ(sol.counts().cbilbo, 0);
}

TEST(Allocator, GreedyMatchesExactOnSmallCases) {
  BistAllocator alloc{AreaModel{}};
  Datapath dp = fig_datapath();
  auto exact = alloc.solve(dp);
  auto greedy = alloc.solve_greedy(dp);
  EXPECT_LE(exact.extra_area, greedy.extra_area + 1e-9);
}

TEST(Allocator, UntestableModuleReported) {
  Datapath dp = fig_datapath();
  dp.modules[1].left_sources = {2};
  dp.modules[1].right_sources = {2};  // single register on both ports
  BistAllocator alloc{AreaModel{}};
  auto sol = alloc.solve(dp);
  ASSERT_EQ(sol.untestable_modules.size(), 1u);
  EXPECT_EQ(sol.untestable_modules[0], 1u);
  EXPECT_FALSE(sol.embeddings[1].has_value());
}

TEST(Allocator, EmbeddingsRecoveredForEachModule) {
  BistAllocator alloc{AreaModel{}};
  Datapath dp = fig_datapath();
  auto sol = alloc.solve(dp);
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    ASSERT_TRUE(sol.embeddings[m].has_value());
    const auto& e = *sol.embeddings[m];
    EXPECT_TRUE(dp.modules[m].left_sources.count(e.tpg_left) > 0);
    EXPECT_TRUE(dp.modules[m].right_sources.count(e.tpg_right) > 0);
    EXPECT_TRUE(dp.modules[m].dest_registers.count(*e.sa) > 0);
  }
}

TEST(Allocator, DescribeMentionsRoles) {
  BistAllocator alloc{AreaModel{}};
  Datapath dp = fig_datapath();
  auto sol = alloc.solve(dp);
  const std::string s = sol.describe(dp);
  EXPECT_NE(s.find("TPG"), std::string::npos);
  EXPECT_NE(s.find("R4"), std::string::npos);
}

TEST(RoleCounts, ToStringFormat) {
  RoleCounts c;
  c.cbilbo = 1;
  c.tpg = 2;
  EXPECT_EQ(c.to_string(), "1 CBILBO, 2 TPG");
  RoleCounts none;
  EXPECT_EQ(none.to_string(), "none");
}

TEST(Allocator, MinimizeSessionsNeverCostsArea) {
  BistAllocator plain{AreaModel{}};
  BistAllocator tuned{AreaModel{}};
  tuned.minimize_sessions = true;
  Datapath dp = fig_datapath();
  auto a = plain.solve(dp);
  auto b = tuned.solve(dp);
  EXPECT_DOUBLE_EQ(a.extra_area, b.extra_area);
  EXPECT_LE(schedule_test_sessions(dp, b).num_sessions,
            schedule_test_sessions(dp, a).num_sessions);
}

std::string embedding_text(const std::optional<BistEmbedding>& e) {
  if (!e.has_value()) return "untested";
  auto opt = [](const std::optional<std::size_t>& v) {
    return v.has_value() ? std::to_string(*v) : std::string("-");
  };
  std::ostringstream os;
  os << "M" << e->module << " L" << e->tpg_left << " R" << e->tpg_right
     << " SA" << opt(e->sa) << " through " << opt(e->left_through) << "/"
     << opt(e->right_through) << " via " << opt(e->left_via) << "/"
     << opt(e->right_via);
  return os.str();
}

/// Every field of two solutions: roles, each embedding (with its
/// *_through/*_via), untestable modules, extra_area bit for bit, exact.
void expect_same_solution(const BistSolution& got, const BistSolution& want,
                          const std::string& at) {
  ASSERT_EQ(got.embeddings.size(), want.embeddings.size()) << at;
  for (std::size_t m = 0; m < got.embeddings.size(); ++m) {
    EXPECT_EQ(embedding_text(got.embeddings[m]),
              embedding_text(want.embeddings[m]))
        << at << ", module " << m;
  }
  EXPECT_EQ(got.roles, want.roles) << at;
  EXPECT_EQ(got.untestable_modules, want.untestable_modules) << at;
  EXPECT_EQ(got.extra_area, want.extra_area) << at;
  EXPECT_EQ(got.exact, want.exact) << at;
}

/// solve_greedy against full_scan_greedy, every field.  The area models
/// below use dyadic coefficients, so every sum is exact and the area is
/// compared bit for bit.
void expect_greedy_matches_reference(const Datapath& dp,
                                     const AreaModel& model,
                                     const std::string& where) {
  for (bool transparent : {false, true}) {
    BistAllocator alloc(model);
    alloc.use_transparent_paths = transparent;
    const BistSolution got = alloc.solve_greedy(dp);
    const BistSolution want = full_scan_greedy(dp, model, transparent);
    expect_same_solution(
        got, want, where + (transparent ? " (transparent)" : " (simple)"));
  }
}

/// Default, flat (every test register costs the same) and non-monotone
/// (a CBILBO is the cheapest conversion, a TPG the dearest) area models.
std::vector<std::pair<std::string, AreaModel>> reference_models() {
  AreaModel flat;
  flat.tpg_extra_per_bit = flat.sa_extra_per_bit = 1.0;
  flat.bilbo_extra_per_bit = flat.cbilbo_extra_per_bit = 1.0;
  AreaModel twisted;
  twisted.tpg_extra_per_bit = 5.0;
  twisted.sa_extra_per_bit = 1.0;
  twisted.bilbo_extra_per_bit = 2.0;
  twisted.cbilbo_extra_per_bit = 0.5;
  return {{"default", AreaModel{}}, {"flat", flat}, {"non-monotone", twisted}};
}

Datapath bare_datapath(std::size_t nregs) {
  Datapath dp;
  dp.num_allocated = nregs;
  for (std::size_t r = 0; r < nregs; ++r) {
    DpRegister reg;
    reg.name = "R" + std::to_string(r + 1);
    dp.registers.push_back(reg);
  }
  return dp;
}

DpModule module_of(OpKind kind, std::set<std::size_t> left,
                   std::set<std::size_t> right, std::set<std::size_t> dests) {
  DpModule mod;
  mod.name = "M";
  mod.proto = ModuleProto{{kind}};
  mod.left_sources = std::move(left);
  mod.right_sources = std::move(right);
  mod.dest_registers = std::move(dests);
  return mod;
}

/// The data path a synthesis allocates BIST resources on (the pipeline up
/// to the interconnect pass, so no exact allocation runs).
Datapath datapath_of(const Dfg& dfg, const Schedule& sched,
                     SynthesisOptions so) {
  const PassPipeline& pipeline = PassPipeline::standard();
  SynthState state(dfg, sched, minimal_module_spec(dfg, sched), so);
  pipeline.run(state, pipeline.index_of("interconnect") + 1);
  return state.result.datapath;
}

TEST(Allocator, GreedyMatchesFullScanReference) {
  // Paper designs, both arms, simple and transparent paths.
  for (const Benchmark& bench : paper_benchmarks()) {
    const auto protos = parse_module_spec(bench.module_spec);
    for (BinderKind kind : {BinderKind::Traditional, BinderKind::BistAware}) {
      SynthesisOptions so;
      so.binder = kind;
      const SynthesisResult r =
          Synthesizer(so).run(bench.design.dfg, *bench.design.schedule,
                              protos);
      expect_greedy_matches_reference(r.datapath, so.area, bench.name);
    }
  }

  // Every checked-in corpus seed.
  const std::filesystem::path corpus =
      std::filesystem::path(LOWBIST_SOURCE_DIR) / "examples" / "corpus";
  std::size_t seeds = 0;
  for (const auto& file : std::filesystem::directory_iterator(corpus)) {
    if (file.path().extension() != ".corpus") continue;
    std::ifstream in(file.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    const CorpusEntry entry = parse_corpus(buf.str());
    const Dfg& dfg = entry.design.dfg;
    const Schedule& sched = *entry.design.schedule;
    expect_greedy_matches_reference(datapath_of(dfg, sched, {}), AreaModel{},
                                    file.path().filename().string());
    ++seeds;
  }
  EXPECT_GE(seeds, 2u);

  // The scaling tier's 1k and 2k designs (bench/bench_scaling.cpp), where
  // port fan-in runs to dozens of registers.
  for (const int ops : {1000, 2000}) {
    RandomDfgOptions o;
    o.seed = 424242;
    o.ops_per_step = 8;
    o.num_steps = ops / o.ops_per_step;
    o.num_inputs = 12;
    o.reuse_probability = 0.9;
    o.chain_probability = 0.3;
    const RandomDfg rd = make_random_dfg(o);
    SynthesisOptions so;
    so.lifetime.hold_outputs_to_end = false;
    const Datapath dp = datapath_of(rd.dfg, rd.schedule, so);
    BistAllocator alloc(so.area);
    const BistSolution got = alloc.solve_greedy(dp);
    const BistSolution want = full_scan_greedy(dp, so.area, false);
    for (std::size_t m = 0; m < got.embeddings.size(); ++m) {
      EXPECT_EQ(embedding_text(got.embeddings[m]),
                embedding_text(want.embeddings[m]))
          << ops << " ops, module " << m;
    }
    EXPECT_EQ(got.roles, want.roles) << ops << " ops";
    EXPECT_EQ(got.untestable_modules, want.untestable_modules);
    EXPECT_EQ(got.extra_area, want.extra_area) << ops << " ops";
  }

  // Small random DFGs under three area models.
  const auto models = reference_models();
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    RandomDfgOptions o;
    o.seed = seed;
    o.num_steps = 3 + static_cast<int>(seed % 5);
    o.ops_per_step = 2 + static_cast<int>(seed % 3);
    o.num_inputs = 3 + static_cast<int>(seed % 4);
    o.chain_probability = 0.3 * static_cast<double>(seed % 3);
    const RandomDfg rd = make_random_dfg(o);
    SynthesisOptions so;
    so.binder =
        seed % 2 == 0 ? BinderKind::BistAware : BinderKind::Traditional;
    const Datapath dp = datapath_of(rd.dfg, rd.schedule, so);
    for (const auto& [name, model] : models) {
      expect_greedy_matches_reference(
          dp, model, "seed " + std::to_string(seed) + ", " + name);
    }
  }
}

TEST(Allocator, GreedyMatchesFullScanReferenceAtTheKeepLimits) {
  const auto models = reference_models();
  const AreaModel& twisted = models[2].second;
  BistAllocator plain{AreaModel{}};
  BistAllocator transparent(twisted);
  transparent.use_transparent_paths = true;

  // The winning left TPG is the third option of its role: the first two
  // are the right TPG and the SA.
  Datapath tpg_limit = bare_datapath(3);
  tpg_limit.modules.push_back(module_of(OpKind::Add, {0, 1, 2}, {0}, {1}));
  EXPECT_EQ(embedding_text(plain.solve_greedy(tpg_limit).embeddings[0]),
            "M0 L2 R0 SA1 through -/- via -/-");

  // The winning SA is the third destination of its role: the first two
  // are the TPGs.
  Datapath dest_limit = bare_datapath(3);
  dest_limit.modules.push_back(module_of(OpKind::Add, {0}, {1}, {0, 1, 2}));
  EXPECT_EQ(embedding_text(plain.solve_greedy(dest_limit).embeddings[0]),
            "M0 L0 R1 SA2 through -/- via -/-");

  // A CBILBO past the first four options of its role: under a model where
  // a CBILBO is the cheapest conversion, module 1 is best tested by R5 on
  // its left port doubling as SA, its right port fed by the TPG R6 through
  // module 2 held transparent via R4.  R4 is the first left option that is
  // also a destination, and the right port's via register blocks it.
  Datapath cbilbo_limit = bare_datapath(9);
  cbilbo_limit.modules.push_back(module_of(OpKind::Add, {5}, {7}, {8}));
  cbilbo_limit.modules.push_back(
      module_of(OpKind::Mul, {0, 1, 2, 3, 4}, {3}, {3, 4}));
  cbilbo_limit.modules.push_back(module_of(OpKind::Add, {5}, {6}, {3}));
  EXPECT_EQ(
      embedding_text(transparent.solve_greedy(cbilbo_limit).embeddings[1]),
      "M1 L4 R5 SA4 through -/2 via -/3");

  // A CBILBO whose SA is the seventh destination of its role: it stays
  // because it is the register of a kept TPG option.
  Datapath cbilbo_dest = bare_datapath(8);
  cbilbo_dest.modules.push_back(
      module_of(OpKind::Add, {6}, {7}, {0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(embedding_text(
                BistAllocator(twisted).solve_greedy(cbilbo_dest).embeddings[0]),
            "M0 L6 R7 SA6 through -/- via -/-");

  for (const auto& [name, model] : models) {
    expect_greedy_matches_reference(cbilbo_dest, model,
                                    "cbilbo past the destinations, " + name);
    expect_greedy_matches_reference(tpg_limit, model, "tpg limit, " + name);
    expect_greedy_matches_reference(dest_limit, model, "dest limit, " + name);
    expect_greedy_matches_reference(cbilbo_limit, model,
                                    "cbilbo limit, " + name);
  }

  // A crowded module: ten registers on each port and ten destinations,
  // the same registers in the same order, so the other port's register,
  // the SA and the via registers of transparent paths collide with the
  // first options of every role.  Random one-source "setter" modules in
  // front give its registers random roles (BILBOs and CBILBOs included)
  // and, through registers 10..15, transparent paths into its ports.
  std::mt19937 rng(20260101);
  std::uniform_int_distribution<std::size_t> any_reg(0, 15);
  std::uniform_int_distribution<std::size_t> crowd_reg(0, 9);
  std::uniform_int_distribution<int> setters(0, 8);
  const std::set<std::size_t> crowd = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (int trial = 0; trial < 200; ++trial) {
    Datapath dp = bare_datapath(16);
    for (int n = setters(rng); n > 0; --n) {
      const std::size_t a = any_reg(rng);
      std::size_t b = any_reg(rng);
      while (b == a) b = any_reg(rng);
      dp.modules.push_back(
          module_of(OpKind::Add, {a}, {b}, {crowd_reg(rng)}));
    }
    dp.modules.push_back(module_of(OpKind::Mul, crowd, crowd, crowd));
    for (const auto& [name, model] : models) {
      expect_greedy_matches_reference(
          dp, model, "trial " + std::to_string(trial) + ", " + name);
    }
  }

  // CBILBO-only: L={a}, R={b}, D={a}.
  Datapath cbilbo = bare_datapath(2);
  cbilbo.modules.push_back(module_of(OpKind::Add, {0}, {1}, {0}));
  // No destinations: the output is observed at a pin.
  Datapath pin = bare_datapath(3);
  pin.modules.push_back(module_of(OpKind::Add, {0, 1}, {1, 2}, {}));
  // One register on both ports: untestable.
  Datapath shared = bare_datapath(2);
  shared.modules.push_back(module_of(OpKind::Add, {0}, {0}, {1}));
  shared.modules.push_back(module_of(OpKind::Add, {0}, {1}, {1}));
  for (const auto& [name, model] : models) {
    expect_greedy_matches_reference(cbilbo, model, "cbilbo-only, " + name);
    expect_greedy_matches_reference(pin, model, "no destinations, " + name);
    expect_greedy_matches_reference(shared, model, "shared port, " + name);
  }
  EXPECT_EQ(plain.solve_greedy(cbilbo).roles[0], BistRole::Cbilbo);
  EXPECT_FALSE(plain.solve_greedy(pin).embeddings[0]->sa.has_value());
  EXPECT_EQ(plain.solve_greedy(shared).untestable_modules,
            std::vector<std::size_t>{0});
}

// ---- The exact allocator against its reference ---------------------------

namespace reference {

/// The exact allocator as it was first written: a level DP over role
/// states of one RoleFlags::encode() byte per register, deduplicated in an
/// unordered_map, with every embedding of every module tried.  It keeps
/// the allocator's greedy incumbent, area cut, insertion order, frontier
/// cap (500,000 states in one level) and register gate (192).
using StateKey = std::string;

StateKey apply_embedding(const StateKey& state, const BistEmbedding& e) {
  StateKey next = state;
  auto set_flags = [&](std::size_t reg, bool tpg, bool sa) {
    RoleFlags f = RoleFlags::decode(static_cast<std::uint8_t>(next[reg]));
    f.tpg = f.tpg || tpg;
    f.sa = f.sa || sa;
    next[reg] = static_cast<char>(f.encode());
  };
  set_flags(e.tpg_left, true, false);
  set_flags(e.tpg_right, true, false);
  if (e.sa.has_value()) {
    if (e.needs_cbilbo()) {
      RoleFlags f = RoleFlags::decode(static_cast<std::uint8_t>(next[*e.sa]));
      f.tpg = true;
      f.sa = true;
      f.cbilbo = true;
      next[*e.sa] = static_cast<char>(f.encode());
    } else {
      set_flags(*e.sa, false, true);
    }
  }
  return next;
}

double role_extra_of(char c, const AreaModel& model) {
  return model.role_extra(
      RoleFlags::decode(static_cast<std::uint8_t>(c)).role());
}

/// Area change from `prev` to `next = apply_embedding(prev, e)`, over the
/// distinct registers e touches in the order tpg_left, tpg_right, sa.
double area_delta(const StateKey& prev, const StateKey& next,
                  const BistEmbedding& e, const AreaModel& model) {
  std::vector<std::size_t> touched;
  for (std::size_t reg : {e.tpg_left, e.tpg_right}) {
    if (std::find(touched.begin(), touched.end(), reg) == touched.end()) {
      touched.push_back(reg);
    }
  }
  if (e.sa.has_value() &&
      std::find(touched.begin(), touched.end(), *e.sa) == touched.end()) {
    touched.push_back(*e.sa);
  }
  double delta = 0.0;
  for (std::size_t reg : touched) {
    if (prev[reg] != next[reg]) {
      delta += role_extra_of(next[reg], model) -
               role_extra_of(prev[reg], model);
    }
  }
  return delta;
}

std::tuple<double, int, int> cost_of(const StateKey& state,
                                     const AreaModel& model) {
  double area = 0.0;
  int cbilbos = 0;
  int modified = 0;
  for (char c : state) {
    const BistRole role =
        RoleFlags::decode(static_cast<std::uint8_t>(c)).role();
    area += model.role_extra(role);
    if (role == BistRole::Cbilbo) ++cbilbos;
    if (role != BistRole::None) ++modified;
  }
  return {area, cbilbos, modified};
}

bool area_flag_monotone(const AreaModel& model) {
  const double none = model.role_extra(BistRole::None);
  const double tpg = model.role_extra(BistRole::Tpg);
  const double sa = model.role_extra(BistRole::Sa);
  const double bilbo = model.role_extra(BistRole::TpgSa);
  const double cbilbo = model.role_extra(BistRole::Cbilbo);
  return none <= tpg && none <= sa && tpg <= bilbo && sa <= bilbo &&
         bilbo <= cbilbo;
}

BistSolution solve(const Datapath& dp, const AreaModel& model,
                   bool transparent, bool minimize_sessions) {
  BistAllocator greedy(model);
  greedy.use_transparent_paths = transparent;
  if (dp.registers.size() > 192) return greedy.solve_greedy(dp);

  const std::vector<TransparentIPath> paths =
      transparent ? transparent_ipaths(dp) : std::vector<TransparentIPath>{};
  std::vector<std::vector<BistEmbedding>> embeddings;
  std::vector<std::size_t> untestable;
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    embeddings.push_back(enumerate_embeddings(dp, m, paths));
    if (embeddings.back().empty()) untestable.push_back(m);
  }
  const bool prune = area_flag_monotone(model);
  const double incumbent = prune ? greedy.solve_greedy(dp).extra_area : 0.0;

  struct Entry {
    StateKey state;
    std::size_t parent = 0;
    std::optional<BistEmbedding> chosen;
    double area = 0.0;
  };
  std::vector<std::vector<Entry>> levels;
  levels.push_back(
      {Entry{StateKey(dp.registers.size(), '\0'), 0, std::nullopt, 0.0}});
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    const auto& prev = levels.back();
    std::vector<Entry> next;
    std::unordered_map<StateKey, std::size_t> seen;
    for (std::size_t p = 0; p < prev.size(); ++p) {
      if (embeddings[m].empty()) {  // untestable: states pass through
        if (seen.emplace(prev[p].state, next.size()).second) {
          next.push_back(Entry{prev[p].state, p, std::nullopt, prev[p].area});
        }
        continue;
      }
      for (const BistEmbedding& e : embeddings[m]) {
        StateKey s = apply_embedding(prev[p].state, e);
        const double area =
            prev[p].area + area_delta(prev[p].state, s, e, model);
        if (prune && area > incumbent + 1e-6) continue;
        if (seen.emplace(s, next.size()).second) {
          next.push_back(Entry{std::move(s), p, e, area});
          if (next.size() > 500000) return greedy.solve_greedy(dp);
        }
      }
    }
    levels.push_back(std::move(next));
  }

  const auto& final_level = levels.back();
  auto reconstruct = [&](std::size_t index) {
    BistSolution sol;
    for (char c : final_level[index].state) {
      sol.roles.push_back(
          RoleFlags::decode(static_cast<std::uint8_t>(c)).role());
    }
    sol.extra_area = std::get<0>(cost_of(final_level[index].state, model));
    sol.untestable_modules = untestable;
    sol.embeddings.assign(dp.modules.size(), std::nullopt);
    for (std::size_t level = levels.size() - 1; level >= 1; --level) {
      sol.embeddings[level - 1] = levels[level][index].chosen;
      index = levels[level][index].parent;
    }
    return sol;
  };
  std::size_t best = 0;
  for (std::size_t i = 1; i < final_level.size(); ++i) {
    if (cost_of(final_level[i].state, model) <
        cost_of(final_level[best].state, model)) {
      best = i;
    }
  }
  BistSolution best_sol = reconstruct(best);
  if (!minimize_sessions) return best_sol;
  int best_sessions = schedule_test_sessions(dp, best_sol).num_sessions;
  const auto best_cost = cost_of(final_level[best].state, model);
  for (std::size_t i = 0; i < final_level.size(); ++i) {
    if (i == best || cost_of(final_level[i].state, model) != best_cost) {
      continue;
    }
    BistSolution candidate = reconstruct(i);
    const int sessions = schedule_test_sessions(dp, candidate).num_sessions;
    if (sessions < best_sessions) {
      best_sessions = sessions;
      best_sol = std::move(candidate);
    }
  }
  return best_sol;
}

}  // namespace reference

/// solve against reference::solve, every field, with simple paths and
/// minimize_sessions off, and also with transparent paths and with
/// minimize_sessions on unless told otherwise.
void expect_exact_matches_reference(const Datapath& dp,
                                    const AreaModel& model,
                                    const std::string& where,
                                    bool transparent_too = true,
                                    bool sessions_too = true) {
  for (bool transparent : {false, true}) {
    for (bool minimize : {false, true}) {
      if ((transparent && !transparent_too) || (minimize && !sessions_too)) {
        continue;
      }
      BistAllocator alloc(model);
      alloc.use_transparent_paths = transparent;
      alloc.minimize_sessions = minimize;
      expect_same_solution(
          alloc.solve(dp),
          reference::solve(dp, model, transparent, minimize),
          where + (transparent ? " (transparent" : " (simple") +
              (minimize ? ", fewest sessions)" : ")"));
    }
  }
}

/// The data path of a DSP kernel, list-scheduled with `muls` multipliers,
/// 2 adders and 1 subtracter, at width 8.
Datapath kernel_datapath(const Dfg& dfg, int muls, BinderKind binder) {
  const Schedule sched = list_schedule(
      dfg, {{OpKind::Mul, muls}, {OpKind::Add, 2}, {OpKind::Sub, 1}});
  SynthesisOptions so;
  so.binder = binder;
  so.area.bit_width = 8;
  return datapath_of(dfg, sched, so);
}

TEST(Allocator, ExactMatchesReference) {
  // Paper designs under every binder.
  for (const Benchmark& bench : paper_benchmarks()) {
    const auto protos = parse_module_spec(bench.module_spec);
    for (BinderKind kind :
         {BinderKind::Traditional, BinderKind::BistAware, BinderKind::Ralloc,
          BinderKind::Syntest, BinderKind::CliquePartition,
          BinderKind::LoopAware}) {
      SynthesisOptions so;
      so.binder = kind;
      const SynthesisResult r = Synthesizer(so).run(
          bench.design.dfg, *bench.design.schedule, protos);
      expect_exact_matches_reference(
          r.datapath, so.area,
          bench.name + " / " + binder_kind_name(kind));
    }
  }

  // DSP kernels whose exact solves keep thousands of states per level.
  const AreaModel wide = [] {
    AreaModel m;
    m.bit_width = 8;
    return m;
  }();
  for (BinderKind kind : {BinderKind::BistAware, BinderKind::Traditional}) {
    const std::string arm = std::string(" / ") + binder_kind_name(kind);
    BistAllocator alloc(wide);
    for (const auto& [name, dp] :
         {std::pair{"fir9-m3", kernel_datapath(make_fir(9), 3, kind)},
          std::pair{"biquad2-m3",
                    kernel_datapath(make_biquad_cascade(2), 3, kind)},
          std::pair{"fir15-m2", kernel_datapath(make_fir(15), 2, kind)}}) {
      const BistSolution got = alloc.solve(dp);
      EXPECT_TRUE(got.exact) << name << arm;
      expect_same_solution(got, reference::solve(dp, wide, false, false),
                           name + arm);
    }
  }
  // One that overflows the frontier cap and falls back to greedy.
  const Datapath fir19 =
      kernel_datapath(make_fir(19), 3, BinderKind::BistAware);
  const BistSolution capped = BistAllocator(wide).solve(fir19);
  EXPECT_FALSE(capped.exact);
  expect_same_solution(capped, reference::solve(fir19, wide, false, false),
                       "fir19-m3");

  // Small random DFGs under the three reference models (the non-monotone
  // one runs unpruned) and a monotone one whose sums round, so the cut and
  // the dedupe of equal masks must reproduce the reference's areas bit
  // for bit.  Transparent paths multiply the embeddings, and with ties or
  // no cut the reference then takes seconds a design: they run under the
  // default model only.
  auto models = reference_models();
  AreaModel decimal;
  decimal.tpg_extra_per_bit = 0.1;
  decimal.sa_extra_per_bit = 0.7;
  decimal.bilbo_extra_per_bit = 0.9;
  decimal.cbilbo_extra_per_bit = 1.3;
  models.emplace_back("decimal", decimal);
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RandomDfgOptions o;
    o.seed = seed;
    o.num_steps = 3 + static_cast<int>(seed % 4);
    o.ops_per_step = 2 + static_cast<int>(seed % 2);
    o.num_inputs = 3 + static_cast<int>(seed % 3);
    o.chain_probability = 0.3 * static_cast<double>(seed % 3);
    const RandomDfg rd = make_random_dfg(o);
    SynthesisOptions so;
    so.binder =
        seed % 2 == 0 ? BinderKind::BistAware : BinderKind::Traditional;
    const Datapath dp = datapath_of(rd.dfg, rd.schedule, so);
    for (const auto& [name, model] : models) {
      expect_exact_matches_reference(
          dp, model, "seed " + std::to_string(seed) + ", " + name,
          /*transparent_too=*/name == "default",
          /*sessions_too=*/seed % 4 == 0);
    }
  }

  // Register counts around the word boundaries of the packed state (16
  // registers to a word): random modules whose ports and destinations
  // include the last registers of a word and the first of the next.
  std::mt19937 rng(20261018);
  for (const std::size_t nregs : {15u, 16u, 17u, 31u, 32u, 33u}) {
    std::uniform_int_distribution<std::size_t> any_reg(0, nregs - 1);
    const std::size_t edge[] = {14, nregs - 1,
                                std::min<std::size_t>(16, nregs - 1)};
    for (int trial = 0; trial < 3; ++trial) {
      Datapath dp = bare_datapath(nregs);
      for (int m = 0; m < 4; ++m) {
        std::set<std::size_t> left = {any_reg(rng), edge[m % 3]};
        std::set<std::size_t> right = {any_reg(rng), edge[(m + 1) % 3]};
        std::set<std::size_t> dests = {any_reg(rng), edge[(m + 2) % 3]};
        dp.modules.push_back(module_of(m % 2 == 0 ? OpKind::Add : OpKind::Mul,
                                       left, right, dests));
      }
      for (const auto& [name, model] : models) {
        expect_exact_matches_reference(
            dp, model,
            std::to_string(nregs) + " registers, trial " +
                std::to_string(trial) + ", " + name,
            /*transparent_too=*/name == "default");
      }
    }
  }
}

TEST(Sessions, SharedSaForcesTwoSessions) {
  // Both modules use R4 as SA -> they cannot be tested together.
  BistAllocator alloc{AreaModel{}};
  Datapath dp = fig_datapath();
  auto sol = alloc.solve(dp);
  auto plan = schedule_test_sessions(dp, sol);
  EXPECT_EQ(plan.num_sessions, 2);
  EXPECT_NE(plan.session_of[0], plan.session_of[1]);
}

TEST(Sessions, DisjointModulesShareASession) {
  Datapath dp;
  dp.num_allocated = 6;
  for (int i = 1; i <= 6; ++i) {
    DpRegister r;
    r.name = "R" + std::to_string(i);
    dp.registers.push_back(r);
  }
  for (int m = 0; m < 2; ++m) {
    DpModule mod;
    mod.proto = ModuleProto{{OpKind::Add}};
    mod.name = "M" + std::to_string(m + 1);
    mod.left_sources = {static_cast<std::size_t>(3 * m)};
    mod.right_sources = {static_cast<std::size_t>(3 * m + 1)};
    mod.dest_registers = {static_cast<std::size_t>(3 * m + 2)};
    dp.modules.push_back(mod);
  }
  BistAllocator alloc{AreaModel{}};
  auto sol = alloc.solve(dp);
  auto plan = schedule_test_sessions(dp, sol);
  EXPECT_EQ(plan.num_sessions, 1);
}

}  // namespace
}  // namespace lbist
