#pragma once
// Self-checking Verilog testbench emission.
//
// Pairs with rtl/verilog.hpp: given the generated control program, an input
// vector and the cycle-level simulation result, emits a testbench that
// drives the data path's control ports step by step and compares the
// primary-output registers against the expected values at the end.  The
// C++ simulator (rtl/simulate.hpp) is the reference; the testbench lets a
// user replay the same run under any Verilog simulator.

#include <string>

#include "rtl/controller.hpp"
#include "rtl/simulate.hpp"

namespace lbist {

/// Emits a testbench module named `<datapath>_tb` for the module produced
/// by emit_verilog(dp, width): it declares and connects every port of
/// datapath_ports(dp, width) at its width and drives the control ports
/// with each step's DpPort::value.  `inputs` must be the vector used to
/// obtain `sim` from simulate_datapath.
[[nodiscard]] std::string emit_testbench(
    const Dfg& dfg, const Datapath& dp, const Controller& ctl,
    const IdMap<VarId, std::uint32_t>& inputs, const SimResult& sim,
    int width);

}  // namespace lbist
