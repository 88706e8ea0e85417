#include "rtl/testbench.hpp"

#include <sstream>

#include "rtl/verilog.hpp"

namespace lbist {

std::string emit_testbench(const Dfg& dfg, const Datapath& dp,
                           const Controller& ctl,
                           const IdMap<VarId, std::uint32_t>& inputs,
                           const SimResult& sim, int width) {
  using Kind = DpPort::Kind;
  const std::vector<DpPort> ports = datapath_ports(dp, width);
  std::ostringstream os;
  const std::string dut = verilog_ident(dp.name);
  os << "// Self-checking testbench generated by lowbist\n";
  os << "`timescale 1ns/1ps\n";
  os << "module " << dut << "_tb;\n";
  os << "  reg clk = 0;\n  reg rst = 1;\n";
  os << "  always #5 clk = ~clk;\n\n";

  // A reg per DUT input port, a wire per output.
  for (const DpPort& p : ports) {
    os << (p.is_output() ? "  wire " : "  reg ") << p.range() << p.name
       << (p.is_output() ? ";\n" : " = 0;\n");
  }

  // DUT instantiation by name.
  os << "\n  " << dut << " dut(\n    .clk(clk), .rst(rst)";
  for (const DpPort& p : ports) {
    os << ",\n    ." << p.name << "(" << p.name << ")";
  }
  os << ");\n\n";

  // The control program.
  os << "  integer errors = 0;\n";
  os << "  initial begin\n";
  os << "    @(negedge clk); rst = 0;\n";
  for (int step = 0; step <= ctl.num_steps(); ++step) {
    const ControlWord& word = ctl.word(step);
    os << "    // control step " << step << "\n";
    for (const DpPort& p : ports) {
      if (!p.is_control() || p.kind == Kind::Select) continue;
      const std::optional<int> v = p.value(dp, word);
      if (p.kind != Kind::Enable) {
        if (v) os << "    " << p.name << " = " << *v << ";\n";
        continue;
      }
      // A register's line: its enable, then, when enabled, its select and
      // the primary input it loads.
      os << "    " << p.name << " = " << v.value_or(0) << ";";
      const RegControl& rc = word.regs[p.owner];
      if (const DpPort* sel = find_port(ports, Kind::Select, p.owner);
          sel != nullptr && v) {
        os << " " << sel->name << " = " << *sel->value(dp, word) << ";";
      }
      if (v && rc.var.valid() && dfg.var(rc.var).is_input()) {
        os << " " << find_port(ports, Kind::Load, p.owner)->name << " = "
           << inputs[rc.var] << ";";
      }
      os << "\n";
    }
    os << "    @(negedge clk);\n";
  }

  // Final output checks against the C++ simulation.
  for (const DpPort& p : ports) {
    if (p.kind != Kind::Out) continue;
    // The register's sole end-of-schedule output variable.
    for (VarId v : dp.registers[p.owner].vars) {
      if (!dfg.var(v).is_output) continue;
      os << "    if (" << p.name << " !== " << sim.observed[v]
         << ") begin errors = errors + 1; $display(\"FAIL " << dfg.var(v).name
         << ": %0d\", " << p.name << "); end\n";
    }
  }
  os << "    if (errors == 0) $display(\"PASS\");\n";
  os << "    $finish;\n";
  os << "  end\n";
  os << "endmodule\n";
  return os.str();
}

}  // namespace lbist
