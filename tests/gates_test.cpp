// Gate-level netlist tests: builder correctness against the word-level
// reference semantics (exhaustive at width 4), gate counts, parallel
// evaluation, fault enumeration and BIST coverage on real structure.

#include <gtest/gtest.h>

#include "gates/gate_fault_sim.hpp"
#include "gates/module_builders.hpp"
#include "core/compare.hpp"
#include "gates/gate_selftest.hpp"
#include "rtl/simulate.hpp"
#include "support/check.hpp"

namespace lbist {
namespace {

/// Evaluates a module netlist on a single (a, b) pair via the parallel
/// engine (pattern lane 0).
std::uint32_t eval_single(const ModuleNetlist& m, std::uint32_t a,
                          std::uint32_t b) {
  std::vector<std::uint64_t> a_bits(static_cast<std::size_t>(m.width), 0);
  std::vector<std::uint64_t> b_bits(static_cast<std::size_t>(m.width), 0);
  for (int i = 0; i < m.width; ++i) {
    a_bits[static_cast<std::size_t>(i)] = (a >> i) & 1u;
    b_bits[static_cast<std::size_t>(i)] = (b >> i) & 1u;
  }
  const auto out = m.eval(a_bits, b_bits);
  std::uint32_t y = 0;
  for (int i = 0; i < m.width; ++i) {
    if (out[static_cast<std::size_t>(i)] & 1u) y |= 1u << i;
  }
  return y;
}

class GateBuilders : public ::testing::TestWithParam<OpKind> {};

TEST_P(GateBuilders, ExhaustivelyMatchesReferenceAtWidth4) {
  const OpKind kind = GetParam();
  const int width = 4;
  ModuleNetlist m = build_module(kind, width);
  for (std::uint32_t a = 0; a < 16; ++a) {
    for (std::uint32_t b = 0; b < 16; ++b) {
      EXPECT_EQ(eval_single(m, a, b), eval_op(kind, a, b, width))
          << to_string(kind) << " " << a << "," << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GateBuilders,
                         ::testing::Values(OpKind::Add, OpKind::Sub,
                                           OpKind::Mul, OpKind::And,
                                           OpKind::Or, OpKind::Xor,
                                           OpKind::Lt, OpKind::Gt),
                         [](const auto& pinfo) {
                           return std::string(to_string(pinfo.param));
                         });

TEST(GateBuilders, RandomizedMatchAtWidth8) {
  const int width = 8;
  for (OpKind kind : {OpKind::Add, OpKind::Sub, OpKind::Mul}) {
    ModuleNetlist m = build_module(kind, width);
    std::uint32_t a = 17, b = 91;
    for (int t = 0; t < 200; ++t) {
      a = (a * 73 + 11) & 0xFF;
      b = (b * 29 + 5) & 0xFF;
      EXPECT_EQ(eval_single(m, a, b), eval_op(kind, a, b, width));
    }
  }
}

TEST(GateBuilders, DividerHasNoGateModel) {
  EXPECT_FALSE(has_gate_level_model(OpKind::Div));
  EXPECT_TRUE(has_gate_level_model(OpKind::Mul));
  EXPECT_THROW(build_module(OpKind::Div, 8), Error);
}

TEST(GateBuilders, GateCountsScaleAsAreaModelAssumes) {
  // Adder linear, multiplier quadratic — the area model's shape.
  const auto add4 = static_cast<double>(build_adder(4).netlist.gate_count());
  const auto add8 = static_cast<double>(build_adder(8).netlist.gate_count());
  EXPECT_NEAR(add8 / add4, 2.0, 0.3);
  const auto mul4 =
      static_cast<double>(build_multiplier(4).netlist.gate_count());
  const auto mul8 =
      static_cast<double>(build_multiplier(8).netlist.gate_count());
  EXPECT_GT(mul8 / mul4, 3.0);
}

TEST(GateNetlist, ParallelLanesAreIndependent) {
  // Lane p computes pattern p: fill two lanes with different operands.
  ModuleNetlist m = build_adder(4);
  std::vector<std::uint64_t> a_bits(4, 0), b_bits(4, 0);
  // lane 0: a=3, b=5;  lane 1: a=15, b=1.
  for (int i = 0; i < 4; ++i) {
    a_bits[static_cast<std::size_t>(i)] =
        (((3u >> i) & 1u)) | (static_cast<std::uint64_t>((15u >> i) & 1u)
                              << 1);
    b_bits[static_cast<std::size_t>(i)] =
        (((5u >> i) & 1u)) | (static_cast<std::uint64_t>((1u >> i) & 1u)
                              << 1);
  }
  const auto out = m.eval(a_bits, b_bits);
  std::uint32_t lane0 = 0, lane1 = 0;
  for (int i = 0; i < 4; ++i) {
    if (out[static_cast<std::size_t>(i)] & 1u) lane0 |= 1u << i;
    if ((out[static_cast<std::size_t>(i)] >> 1) & 1u) lane1 |= 1u << i;
  }
  EXPECT_EQ(lane0, 8u);   // 3 + 5
  EXPECT_EQ(lane1, 0u);   // 15 + 1 wraps at width 4
}

TEST(GateNetlist, FaultInjectionForcesNode) {
  ModuleNetlist m = build_bitwise(OpKind::And, 2);
  std::vector<std::uint64_t> ones(2, ~std::uint64_t{0});
  // Fault-free: 1&1 = 1 on both bits.
  auto out = m.eval(ones, ones);
  EXPECT_EQ(out[0] & 1u, 1u);
  // Stuck-at-0 on the bit-0 AND gate output.
  const int gate0 = static_cast<int>(m.netlist.num_nodes()) - 2;
  out = m.eval(ones, ones, gate0, false);
  EXPECT_EQ(out[0] & 1u, 0u);
  EXPECT_EQ(out[1] & 1u, 1u);
}

TEST(GateFaults, EnumerationCountsNodes) {
  ModuleNetlist m = build_adder(4);
  EXPECT_EQ(enumerate_gate_faults(m.netlist).size(),
            2 * m.netlist.num_nodes());
}

class GateCoverage : public ::testing::TestWithParam<OpKind> {};

TEST_P(GateCoverage, BistReachesHighInternalCoverage) {
  ModuleNetlist m = build_module(GetParam(), 8);
  auto result = simulate_gate_bist(m, 255);
  // Constants contribute a handful of untestable faults; everything else
  // should fall to a full LFSR period.
  EXPECT_GT(result.coverage(), 0.90) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kinds, GateCoverage,
                         ::testing::Values(OpKind::Add, OpKind::Sub,
                                           OpKind::Mul, OpKind::And,
                                           OpKind::Xor),
                         [](const auto& pinfo) {
                           return std::string(to_string(pinfo.param));
                         });

TEST(GateCoverage, CorrelatedTpgsHurtAtGateLevelToo) {
  ModuleNetlist sub = build_subtractor(8);
  const auto indep = simulate_gate_bist(sub, 255, true);
  const auto corr = simulate_gate_bist(sub, 255, false);
  EXPECT_LT(corr.detected, indep.detected);
}

TEST(GateCoverage, MorePatternsNeverHurtEarly) {
  ModuleNetlist mul = build_multiplier(8);
  const auto few = simulate_gate_bist(mul, 16);
  const auto many = simulate_gate_bist(mul, 200);
  EXPECT_GE(many.detected, few.detected);
}

TEST(GateSelfTest, GradesEveryTestableModule) {
  auto row = compare_benchmark(make_ex1());
  auto result =
      run_gate_self_test(row.testable.datapath, row.testable.bist, 250, 8);
  EXPECT_EQ(result.modules.size(), row.testable.datapath.modules.size());
  EXPECT_GT(result.coverage(), 0.9);
  for (const auto& m : result.modules) {
    EXPECT_TRUE(m.gate_level);
    EXPECT_GT(m.coverage.coverage(), 0.9);
  }
}

TEST(GateSelfTest, DividerFallsBackToPortModel) {
  auto row = compare_benchmark(make_ex2());  // has a divider
  auto result =
      run_gate_self_test(row.testable.datapath, row.testable.bist, 250, 8);
  bool saw_fallback = false;
  for (const auto& m : result.modules) {
    if (!m.gate_level) {
      saw_fallback = true;
      EXPECT_TRUE(row.testable.datapath.modules[m.module].proto
                      .supports_kind(OpKind::Div));
    }
  }
  EXPECT_TRUE(saw_fallback);
  EXPECT_GT(result.coverage(), 0.85);
}

TEST(GateSelfTest, AllBenchmarksReachHighGateCoverage) {
  for (const auto& row : compare_paper_benchmarks()) {
    auto result = run_gate_self_test(row.testable.datapath,
                                     row.testable.bist, 250, 8);
    EXPECT_GT(result.coverage(), 0.88) << row.name;
  }
}

}  // namespace
}  // namespace lbist
