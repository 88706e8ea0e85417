#include "rtl/testbench.hpp"

#include <sstream>

#include "rtl/verilog.hpp"

namespace lbist {

std::string emit_testbench(const Dfg& dfg, const Datapath& dp,
                           const Controller& ctl,
                           const IdMap<VarId, std::uint32_t>& inputs,
                           const SimResult& sim, int width) {
  std::ostringstream os;
  const std::string dut = verilog_ident(dp.name);
  os << "// Self-checking testbench generated by lowbist\n";
  os << "`timescale 1ns/1ps\n";
  os << "module " << dut << "_tb;\n";
  os << "  reg clk = 0;\n  reg rst = 1;\n";
  os << "  always #5 clk = ~clk;\n\n";

  // Control and data registers, one per DUT input port.
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    const auto& reg = dp.registers[r];
    const std::string rn = verilog_ident(reg.name);
    if (reg.external_source || reg.dedicated_input) {
      os << "  reg [" << width - 1 << ":0] load_" << rn << " = 0;\n";
    }
    os << "  reg en_" << rn << " = 0;\n";
    const std::size_t n_src =
        reg.source_modules.size() +
        ((reg.external_source || reg.dedicated_input) ? 1u : 0u);
    if (n_src > 1) os << "  reg [3:0] sel_" << rn << " = 0;\n";
    if (reg.drives_output) {
      os << "  wire [" << width - 1 << ":0] out_" << rn << ";\n";
    }
  }
  for (const auto& mod : dp.modules) {
    const std::string mn = verilog_ident(mod.name);
    if (mod.left_sources.size() > 1) os << "  reg [3:0] sel_" << mn
                                        << "_l = 0;\n";
    if (mod.right_sources.size() > 1) os << "  reg [3:0] sel_" << mn
                                         << "_r = 0;\n";
    if (mod.proto.supports.size() > 1) os << "  reg [3:0] op_" << mn
                                          << " = 0;\n";
    if (mod.drives_control) os << "  wire ctrl_" << mn << ";\n";
  }

  // DUT instantiation by name.
  os << "\n  " << dut << " dut(\n    .clk(clk), .rst(rst)";
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    const auto& reg = dp.registers[r];
    const std::string rn = verilog_ident(reg.name);
    if (reg.external_source || reg.dedicated_input) {
      os << ",\n    .load_" << rn << "(load_" << rn << ")";
    }
    os << ",\n    .en_" << rn << "(en_" << rn << ")";
    const std::size_t n_src =
        reg.source_modules.size() +
        ((reg.external_source || reg.dedicated_input) ? 1u : 0u);
    if (n_src > 1) os << ",\n    .sel_" << rn << "(sel_" << rn << ")";
    if (reg.drives_output) os << ",\n    .out_" << rn << "(out_" << rn
                              << ")";
  }
  for (const auto& mod : dp.modules) {
    const std::string mn = verilog_ident(mod.name);
    if (mod.left_sources.size() > 1) {
      os << ",\n    .sel_" << mn << "_l(sel_" << mn << "_l)";
    }
    if (mod.right_sources.size() > 1) {
      os << ",\n    .sel_" << mn << "_r(sel_" << mn << "_r)";
    }
    if (mod.proto.supports.size() > 1) {
      os << ",\n    .op_" << mn << "(op_" << mn << ")";
    }
    if (mod.drives_control) os << ",\n    .ctrl_" << mn << "(ctrl_" << mn
                               << ")";
  }
  os << ");\n\n";

  // The control program.
  os << "  integer errors = 0;\n";
  os << "  initial begin\n";
  os << "    @(negedge clk); rst = 0;\n";
  for (int step = 0; step <= ctl.num_steps(); ++step) {
    const ControlWord& word = ctl.word(step);
    os << "    // control step " << step << "\n";
    for (std::size_t r = 0; r < dp.registers.size(); ++r) {
      const auto& reg = dp.registers[r];
      const std::string rn = verilog_ident(reg.name);
      const RegControl& rc = word.regs[r];
      os << "    en_" << rn << " = " << (rc.enable ? 1 : 0) << ";";
      const std::size_t n_src =
          reg.source_modules.size() +
          ((reg.external_source || reg.dedicated_input) ? 1u : 0u);
      if (rc.enable && n_src > 1) {
        os << " sel_" << rn << " = " << rc.select << ";";
      }
      if (rc.enable && rc.var.valid() && dfg.var(rc.var).is_input()) {
        os << " load_" << rn << " = " << inputs[rc.var] << ";";
      }
      os << "\n";
    }
    for (std::size_t m = 0; m < dp.modules.size(); ++m) {
      const ModuleControl& mc = word.modules[m];
      if (!mc.active) continue;
      const auto& mod = dp.modules[m];
      const std::string mn = verilog_ident(mod.name);
      if (mod.left_sources.size() > 1) {
        os << "    sel_" << mn << "_l = " << mc.left_select << ";\n";
      }
      if (mod.right_sources.size() > 1) {
        os << "    sel_" << mn << "_r = " << mc.right_select << ";\n";
      }
      if (mod.proto.supports.size() > 1) {
        os << "    op_" << mn << " = " << kind_index(mod.proto, mc.op)
           << ";\n";
      }
    }
    os << "    @(negedge clk);\n";
  }

  // Final output checks against the C++ simulation.
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    const auto& reg = dp.registers[r];
    if (!reg.drives_output) continue;
    // The register's sole end-of-schedule output variable.
    for (VarId v : reg.vars) {
      if (!dfg.var(v).is_output) continue;
      const std::string rn = verilog_ident(reg.name);
      os << "    if (out_" << rn << " !== " << sim.observed[v]
         << ") begin errors = errors + 1; $display(\"FAIL " << dfg.var(v).name
         << ": %0d\", out_" << rn << "); end\n";
    }
  }
  os << "    if (errors == 0) $display(\"PASS\");\n";
  os << "    $finish;\n";
  os << "  end\n";
  os << "endmodule\n";
  return os.str();
}

}  // namespace lbist
