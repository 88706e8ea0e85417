// Unit tests for the scheduling library: ASAP/ALAP, list scheduling under
// resource limits, and force-directed scheduling.

#include <gtest/gtest.h>

#include "dfg/benchmarks.hpp"
#include "dfg/dfg.hpp"
#include "sched/asap_alap.hpp"
#include "sched/force_directed.hpp"
#include "sched/list_sched.hpp"
#include "support/check.hpp"

namespace lbist {
namespace {

/// Diamond: r = (a+b) * (a-b); s = r + a.
Dfg diamond() {
  Dfg dfg("diamond");
  VarId a = dfg.add_input("a");
  VarId b = dfg.add_input("b");
  VarId p = dfg.add_op(OpKind::Add, a, b, "p");
  VarId q = dfg.add_op(OpKind::Sub, a, b, "q");
  VarId r = dfg.add_op(OpKind::Mul, p, q, "r");
  VarId s = dfg.add_op(OpKind::Add, r, a, "s");
  dfg.mark_output(s);
  dfg.validate();
  return dfg;
}

TEST(Asap, DiamondSteps) {
  Dfg dfg = diamond();
  auto steps = asap_steps(dfg);
  EXPECT_EQ(steps[OpId{0}], 1);
  EXPECT_EQ(steps[OpId{1}], 1);
  EXPECT_EQ(steps[OpId{2}], 2);
  EXPECT_EQ(steps[OpId{3}], 3);
  EXPECT_EQ(critical_path_length(dfg), 3);
}

TEST(Asap, ScheduleIsValid) {
  Dfg dfg = diamond();
  Schedule s = asap_schedule(dfg);  // Schedule ctor validates dependencies
  EXPECT_EQ(s.num_steps(), 3);
}

TEST(Alap, RespectsDeadline) {
  Dfg dfg = diamond();
  auto steps = alap_steps(dfg, 5);
  EXPECT_EQ(steps[OpId{3}], 5);
  EXPECT_EQ(steps[OpId{2}], 4);
  EXPECT_EQ(steps[OpId{0}], 3);
  EXPECT_EQ(steps[OpId{1}], 3);
}

TEST(Alap, RejectsTooShortDeadline) {
  Dfg dfg = diamond();
  EXPECT_THROW(alap_steps(dfg, 2), Error);
}

TEST(Alap, EqualsAsapOnCriticalPath) {
  Dfg dfg = diamond();
  auto asap = asap_steps(dfg);
  auto alap = alap_steps(dfg, critical_path_length(dfg));
  // Every op on the critical path has zero mobility.
  EXPECT_EQ(asap[OpId{2}], alap[OpId{2}]);
  EXPECT_EQ(asap[OpId{3}], alap[OpId{3}]);
}

TEST(ListSched, UnlimitedMatchesAsap) {
  Dfg dfg = diamond();
  Schedule s = list_schedule(dfg, {});
  EXPECT_EQ(s.num_steps(), critical_path_length(dfg));
}

TEST(ListSched, ResourceLimitStretchesSchedule) {
  Dfg fir = make_fir(4);  // 4 muls then an add tree
  Schedule fast = list_schedule(fir, {});
  Schedule slow = list_schedule(fir, {{OpKind::Mul, 1}});
  EXPECT_GT(slow.num_steps(), fast.num_steps());
  // Verify the limit is honored.
  for (int step = 1; step <= slow.num_steps(); ++step) {
    int muls = 0;
    for (OpId op : slow.ops_in_step(fir, step)) {
      if (fir.op(op).kind == OpKind::Mul) ++muls;
    }
    EXPECT_LE(muls, 1);
  }
}

TEST(ListSched, LimitOfTwoMultipliers) {
  Dfg fir = make_fir(8);
  Schedule s = list_schedule(fir, {{OpKind::Mul, 2}});
  for (int step = 1; step <= s.num_steps(); ++step) {
    int muls = 0;
    for (OpId op : s.ops_in_step(fir, step)) {
      if (fir.op(op).kind == OpKind::Mul) ++muls;
    }
    EXPECT_LE(muls, 2);
  }
}

TEST(ForceDirected, MeetsLatencyBound) {
  Dfg fir = make_fir(6);
  const int latency = critical_path_length(fir) + 2;
  Schedule s = force_directed_schedule(fir, latency);
  EXPECT_LE(s.num_steps(), latency);
}

TEST(ForceDirected, BalancesMultipliers) {
  Dfg fir = make_fir(8);  // 8 muls; critical path ~ 1 mul + 3 adds
  const int latency = critical_path_length(fir) + 3;
  Schedule s = force_directed_schedule(fir, latency);
  // With balancing, no step should need all 8 multipliers.
  int peak = 0;
  for (int step = 1; step <= s.num_steps(); ++step) {
    int muls = 0;
    for (OpId op : s.ops_in_step(fir, step)) {
      if (fir.op(op).kind == OpKind::Mul) ++muls;
    }
    peak = std::max(peak, muls);
  }
  EXPECT_LT(peak, 8);
}

TEST(ForceDirected, RejectsInfeasibleLatency) {
  Dfg dfg = diamond();
  EXPECT_THROW(force_directed_schedule(dfg, 2), Error);
}

TEST(ForceDirected, ExactLatencyOfCriticalPathWorks) {
  Dfg dfg = diamond();
  Schedule s = force_directed_schedule(dfg, 3);
  EXPECT_EQ(s.num_steps(), 3);
}

}  // namespace
}  // namespace lbist
