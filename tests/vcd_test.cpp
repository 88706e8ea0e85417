// VCD waveform emission from a simulated data path.

#include <gtest/gtest.h>

#include "binding/bist_aware_binder.hpp"
#include "dfg/benchmarks.hpp"
#include "graph/conflict.hpp"
#include "interconnect/build_datapath.hpp"
#include "rtl/controller.hpp"
#include "rtl/simulate.hpp"
#include "rtl/vcd.hpp"

namespace lbist {
namespace {

struct SimFixture {
  Benchmark bench = make_ex1();
  IdMap<VarId, LiveInterval> lt =
      compute_lifetimes(bench.design.dfg, *bench.design.schedule);
  VarConflictGraph cg = build_conflict_graph(bench.design.dfg, lt);
  ModuleBinding mb =
      ModuleBinding::bind(bench.design.dfg, *bench.design.schedule,
                          parse_module_spec(bench.module_spec));
  RegisterBinding rb = bind_registers_bist_aware(bench.design.dfg, cg, mb);
  Datapath dp = build_datapath(bench.design.dfg, mb, rb);
  Controller ctl = Controller::generate(bench.design.dfg,
                                        *bench.design.schedule, rb, dp, lt);

  SimResult simulate() {
    IdMap<VarId, std::uint32_t> inputs(bench.design.dfg.num_vars(), 0);
    inputs[*bench.design.dfg.find_var("a")] = 3;
    inputs[*bench.design.dfg.find_var("b")] = 4;
    inputs[*bench.design.dfg.find_var("c")] = 5;
    inputs[*bench.design.dfg.find_var("e")] = 2;
    return simulate_datapath(bench.design.dfg, dp, ctl, inputs, 8);
  }
};

TEST(Vcd, TraceCoversEveryControlWord) {
  SimFixture f;
  auto sim = f.simulate();
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(sim.reg_trace.size(),
            static_cast<std::size_t>(f.ctl.num_steps()) + 1);
}

TEST(Vcd, WellFormedHeaderAndChanges) {
  SimFixture f;
  auto sim = f.simulate();
  const std::string vcd = emit_vcd(f.dp, sim, 8);
  EXPECT_NE(vcd.find("$timescale"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  for (const auto& reg : f.dp.registers) {
    EXPECT_NE(vcd.find(" " + reg.name + " [7:0] $end"), std::string::npos);
  }
  // Timestamps 0..num_steps appear.
  for (int s = 0; s <= f.ctl.num_steps(); ++s) {
    EXPECT_NE(vcd.find("#" + std::to_string(s) + "\n"), std::string::npos);
  }
  // The final product 168 = 0b10101000 lands in some register.
  EXPECT_NE(vcd.find("b10101000 "), std::string::npos);
}

TEST(Vcd, OnlyChangesAreDumped) {
  SimFixture f;
  auto sim = f.simulate();
  const std::string vcd = emit_vcd(f.dp, sim, 8);
  // A register that never changes value after a write appears fewer times
  // than there are timestamps: count value lines and compare to the
  // worst case of steps * registers.
  const auto lines = static_cast<std::size_t>(
      std::count(vcd.begin(), vcd.end(), '\n'));
  const std::size_t worst = (static_cast<std::size_t>(f.ctl.num_steps()) +
                             1) * f.dp.registers.size();
  EXPECT_LT(lines, worst + 20);  // header + timestamps + sparse changes
}

}  // namespace
}  // namespace lbist
