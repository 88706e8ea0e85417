// Transparency-extended BIST embeddings (I-paths through identity modes).

#include <gtest/gtest.h>

#include "bist/allocator.hpp"
#include "bist/selftest.hpp"
#include "bist/sessions.hpp"
#include "core/compare.hpp"
#include "dfg/benchmarks.hpp"
#include "rtl/ipath.hpp"

namespace lbist {
namespace {

/// M1: R1,R2 -> ... -> R3;  M2: both ports fed only by R3 and R4 where R4
/// also equals nothing else — engineered so M2 profits from a transparent
/// path through M1.
Datapath chain_datapath() {
  Datapath dp;
  dp.name = "chain";
  dp.num_allocated = 5;
  for (int i = 1; i <= 5; ++i) {
    DpRegister r;
    r.name = "R" + std::to_string(i);
    dp.registers.push_back(r);
  }
  DpModule m1;
  m1.name = "M1(+)";
  m1.proto = ModuleProto{{OpKind::Add}};
  m1.left_sources = {0, 1};
  m1.right_sources = {4};
  m1.dest_registers = {2};
  DpModule m2;
  m2.name = "M2(*)";
  m2.proto = ModuleProto{{OpKind::Mul}};
  m2.left_sources = {2};
  m2.right_sources = {3};
  m2.dest_registers = {3};  // self-adjacent on R4: forced CBILBO simply
  dp.modules = {m1, m2};
  dp.registers[2].source_modules = {0};
  dp.registers[3].source_modules = {1};
  return dp;
}

TEST(Transparency, ExtendedSupersetOfSimple) {
  Datapath dp = chain_datapath();
  const auto paths = transparent_ipaths(dp);
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    auto simple = enumerate_embeddings(dp, m);
    auto extended = enumerate_embeddings(dp, m, paths);
    EXPECT_GE(extended.size(), simple.size());
    // The simple embeddings appear first, unchanged.
    for (std::size_t i = 0; i < simple.size(); ++i) {
      EXPECT_EQ(extended[i].tpg_left, simple[i].tpg_left);
      EXPECT_EQ(extended[i].tpg_right, simple[i].tpg_right);
      EXPECT_FALSE(extended[i].uses_transparency());
    }
  }
}

TEST(Transparency, ExtendedEmbeddingsRouteThroughIdentityModule) {
  Datapath dp = chain_datapath();
  auto extended = enumerate_embeddings(dp, 1, transparent_ipaths(dp));
  bool found = false;
  for (const auto& e : extended) {
    if (!e.uses_transparency()) continue;
    found = true;
    // Left port of M2 is fed by R3, which M1 writes: the through module
    // must be M1 and the via register R3 (index 2).
    if (e.left_through.has_value()) {
      EXPECT_EQ(*e.left_through, 0u);
      EXPECT_EQ(*e.left_via, 2u);
      EXPECT_TRUE(e.tpg_left == 0 || e.tpg_left == 1 || e.tpg_left == 4);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Transparency, ViaRegisterNeverDoublesAsSaOrPeerTpg) {
  Datapath dp = chain_datapath();
  const auto paths = transparent_ipaths(dp);
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    for (const auto& e : enumerate_embeddings(dp, m, paths)) {
      for (auto via : {e.left_via, e.right_via}) {
        if (!via.has_value()) continue;
        EXPECT_NE(*via, e.tpg_left);
        EXPECT_NE(*via, e.tpg_right);
        if (e.sa.has_value()) {
          EXPECT_NE(*via, *e.sa);
        }
      }
    }
  }
}

TEST(Transparency, AllocatorNeverWorseWithTransparency) {
  for (const auto& bench : paper_benchmarks()) {
    auto row = compare_benchmark(bench);
    BistAllocator plain{AreaModel{}};
    BistAllocator extended{AreaModel{}};
    extended.use_transparent_paths = true;
    const double base = plain.solve(row.testable.datapath).extra_area;
    const double with = extended.solve(row.testable.datapath).extra_area;
    EXPECT_LE(with, base + 1e-9) << bench.name;
  }
}

TEST(Transparency, SessionsSeparateWireFromTest) {
  // If a chosen embedding routes through module t, then t and the module
  // under test never share a session.
  auto row = compare_benchmark(make_tseng1());
  BistAllocator alloc{AreaModel{}};
  alloc.use_transparent_paths = true;
  auto sol = alloc.solve(row.testable.datapath);
  auto plan = schedule_test_sessions(row.testable.datapath, sol);
  for (std::size_t m = 0; m < sol.embeddings.size(); ++m) {
    if (!sol.embeddings[m].has_value()) continue;
    for (auto through : {sol.embeddings[m]->left_through,
                         sol.embeddings[m]->right_through}) {
      if (through.has_value()) {
        EXPECT_NE(plan.session_of[m], plan.session_of[*through]);
      }
    }
  }
}

TEST(Transparency, SelfTestExecutesTransparentPlans) {
  auto row = compare_benchmark(make_ex1());
  BistAllocator alloc{AreaModel{}};
  alloc.use_transparent_paths = true;
  auto sol = alloc.solve(row.testable.datapath);
  auto result = run_self_test(row.testable.datapath, sol, 200, 8);
  EXPECT_GT(result.coverage(), 0.9);
}

}  // namespace
}  // namespace lbist
