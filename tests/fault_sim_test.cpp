// BIST fault-simulation and test-plan tests: the allocated test resources
// must actually detect port faults, coverage must grow with pattern count,
// and the degenerate one-TPG configuration must demonstrably underperform —
// the experimental backing for the tpg_left != tpg_right embedding rule.
// Also the paper's premise as a test: port-fault grading equals grading
// the boundary faults of every gate netlist.

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "bist/fault_sim.hpp"
#include "bist/test_length.hpp"
#include "bist/test_plan.hpp"
#include "core/compare.hpp"
#include "dfg/benchmarks.hpp"
#include "gates/gate_fault_sim.hpp"

namespace lbist {
namespace {

constexpr int kWidth = 8;

// ---- The paper's premise ------------------------------------------------

/// `module` with one Buf appended per output, so each output bit is its own
/// fault site (a comparator's upper result bits share one constant node).
ModuleNetlist with_output_buffers(const ModuleNetlist& module) {
  ModuleNetlist out;
  out.width = module.width;
  out.a = module.a;
  out.b = module.b;
  const GateNetlist& src = module.netlist;
  for (std::size_t i = 0; i < src.num_nodes(); ++i) {
    const GateNode& n = src.node(i);
    if (n.kind == GateKind::Input) {
      out.netlist.add_input();
    } else if (n.kind == GateKind::Const0 || n.kind == GateKind::Const1) {
      out.netlist.add_const(n.kind == GateKind::Const1);
    } else {
      out.netlist.add_gate(n.kind, n.fanin0, n.fanin1);
    }
  }
  for (int o : src.outputs()) {
    out.netlist.mark_output(out.netlist.add_gate(GateKind::Buf, o));
  }
  return out;
}

// "The mapping of registers to TPGs and SAs is independent of the function
// and the gate-level implementation of the operator modules": a port fault
// graded word-level is detected exactly when the same stuck-at on the
// netlist's boundary (an input node or an output buffer) is detected by
// the same session.  Checked fault by fault for every kind with a netlist.
TEST(PortModel, PortFaultsMatchNetlistBoundaryFaults) {
  for (const int width : {4, 8}) {
    const std::vector<StuckFault> faults = enumerate_port_faults(width);
    for (const TpgPair& tpgs :
         {TpgPair::generic(),
          TpgPair{chip_seed(0, width), chip_seed(1, width), false, false},
          TpgPair{chip_seed(2, width), chip_seed(5, width), false, false}}) {
      for (OpKind kind : {OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Lt,
                          OpKind::Gt, OpKind::And, OpKind::Or,
                          OpKind::Xor}) {
        ASSERT_TRUE(has_gate_level_model(kind));
        const ModuleNetlist net =
            with_output_buffers(build_module(kind, width));
        const std::size_t first_buffer =
            net.netlist.num_nodes() - static_cast<std::size_t>(width);
        std::set<std::pair<int, bool>> gate_undetected;
        for (const GateFault& g :
             simulate_gate_bist_seeded(net, tpgs.left, tpgs.right, 250)
                 .undetected) {
          gate_undetected.emplace(g.node, g.stuck_one);
        }
        const SessionGrade port =
            grade_port_faults({kind}, tpgs, 250, width);
        const std::set<int> port_undetected(port.undetected.begin(),
                                            port.undetected.end());
        for (std::size_t f = 0; f < faults.size(); ++f) {
          const StuckFault& pf = faults[f];
          const auto bit = static_cast<std::size_t>(pf.bit);
          const int node =
              pf.site == StuckFault::Site::LeftPort    ? net.a[bit]
              : pf.site == StuckFault::Site::RightPort ? net.b[bit]
                  : static_cast<int>(first_buffer + bit);
          EXPECT_EQ(port_undetected.count(static_cast<int>(f)),
                    gate_undetected.count({node, pf.stuck_one}))
              << symbol(kind) << " width " << width << " seeds " << tpgs.left
              << "/" << tpgs.right << " site "
              << static_cast<int>(pf.site) << " bit " << pf.bit
              << (pf.stuck_one ? " s-a-1" : " s-a-0");
        }
      }
    }
  }
}

TEST(FaultModel, EnumeratesSixPerBit) {
  auto faults = enumerate_port_faults(kWidth);
  EXPECT_EQ(faults.size(), 6u * kWidth);
}

TEST(FaultSim, AdderReachesFullCoverage) {
  auto result =
      simulate_module_bist(ModuleProto{{OpKind::Add}}, kWidth, 200);
  EXPECT_EQ(result.detected, result.total);
}

TEST(FaultSim, MultiplierReachesHighCoverage) {
  auto result =
      simulate_module_bist(ModuleProto{{OpKind::Mul}}, kWidth, 250);
  // Upper input bits of a truncated multiplier are hard to observe in the
  // kept word; still expect most faults caught.
  EXPECT_GT(result.coverage(), 0.85);
}

TEST(FaultSim, CoverageGrowsWithPatterns) {
  const ModuleProto alu{{OpKind::Add, OpKind::And}};
  const auto few = simulate_module_bist(alu, kWidth, 4);
  const auto many = simulate_module_bist(alu, kWidth, 200);
  EXPECT_LE(few.detected, many.detected);
  EXPECT_GT(many.coverage(), 0.95);
}

TEST(FaultSim, CorrelatedTpgsLoseCoverage) {
  // One LFSR driving both ports: a subtractor always sees a - a = 0, an
  // XOR always 0, comparisons always equal...  Independent TPGs exist for a
  // reason (Section II's "two registers with independent I-paths").
  for (OpKind kind : {OpKind::Sub, OpKind::Xor, OpKind::Lt}) {
    const ModuleProto proto{{kind}};
    const auto indep = simulate_module_bist(proto, kWidth, 250, true);
    const auto corr = simulate_module_bist(proto, kWidth, 250, false);
    EXPECT_LT(corr.detected, indep.detected) << to_string(kind);
  }
}

TEST(FaultSim, EveryKindGetsItsOwnSession) {
  // A fault detectable only through the AND function must still be caught
  // when the module also implements OR.
  const auto alu =
      simulate_module_bist(ModuleProto{{OpKind::And, OpKind::Or}}, kWidth,
                           200);
  EXPECT_GT(alu.coverage(), 0.95);
}

TEST(TestPlan, PaperBenchmarksAreFullyTestable) {
  for (const auto& row : compare_paper_benchmarks()) {
    TestPlan plan =
        build_test_plan(row.testable.datapath, row.testable.bist, 250,
                        kWidth);
    EXPECT_EQ(plan.modules.size(), row.testable.datapath.modules.size())
        << row.name;
    EXPECT_GE(plan.num_sessions, 1) << row.name;
    EXPECT_GT(plan.min_coverage, 0.80) << row.name;
    EXPECT_GT(plan.avg_coverage, 0.90) << row.name;
    EXPECT_EQ(plan.total_clocks, plan.num_sessions * 250) << row.name;
  }
}

TEST(TestPlan, DescribeListsSessionsAndCoverage) {
  auto row = compare_benchmark(make_ex1());
  TestPlan plan =
      build_test_plan(row.testable.datapath, row.testable.bist, 100, kWidth);
  const std::string s = plan.describe(row.testable.datapath);
  EXPECT_NE(s.find("session"), std::string::npos);
  EXPECT_NE(s.find("coverage"), std::string::npos);
  EXPECT_NE(s.find("TPG={"), std::string::npos);
}

TEST(TestPlan, SessionsRespectConflicts) {
  auto row = compare_benchmark(make_ex2());
  TestPlan plan =
      build_test_plan(row.testable.datapath, row.testable.bist, 50, kWidth);
  // Within one session no register is the SA of two modules.
  for (const auto& a : plan.modules) {
    for (const auto& b : plan.modules) {
      if (&a == &b || a.session != b.session) continue;
      if (a.embedding.sa.has_value() && b.embedding.sa.has_value()) {
        EXPECT_NE(*a.embedding.sa, *b.embedding.sa);
      }
    }
  }
}

TEST(TestLength, FindsSmallBudgetForEasyModules) {
  auto tl = find_test_length(ModuleProto{{OpKind::Add}}, 8, 0.99);
  EXPECT_TRUE(tl.target_met);
  EXPECT_LE(tl.patterns, 64);
  EXPECT_GE(tl.coverage.coverage(), 0.99);
}

TEST(TestLength, ReportsUnreachableTargets) {
  // A 1-bit-output comparator cannot reach full port-fault coverage.
  auto tl = find_test_length(ModuleProto{{OpKind::Lt}}, 8, 0.999);
  EXPECT_FALSE(tl.target_met);
  EXPECT_LT(tl.coverage.coverage(), 0.999);
}

TEST(TestLength, DatapathBudgetIsTheMaximum) {
  auto row = compare_benchmark(make_ex1());
  auto budgets = find_test_lengths(row.testable.datapath, 8, 0.95);
  ASSERT_EQ(budgets.per_module.size(),
            row.testable.datapath.modules.size());
  int max_patterns = 0;
  for (const auto& tl : budgets.per_module) {
    max_patterns = std::max(max_patterns, tl.patterns);
  }
  EXPECT_EQ(budgets.recommended_patterns, max_patterns);
  EXPECT_TRUE(budgets.all_targets_met);
}

TEST(TestLength, RejectsBadTargets) {
  EXPECT_THROW((void)find_test_length(ModuleProto{{OpKind::Add}}, 8, 0.0),
               Error);
  EXPECT_THROW((void)find_test_length(ModuleProto{{OpKind::Add}}, 8, 1.5),
               Error);
}

}  // namespace
}  // namespace lbist
