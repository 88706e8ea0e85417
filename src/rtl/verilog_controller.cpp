#include "rtl/verilog_controller.hpp"

#include <sstream>

#include "rtl/verilog.hpp"

namespace lbist {

std::string emit_controller_verilog(const Datapath& dp,
                                    const Controller& ctl) {
  std::ostringstream os;
  const std::string name = verilog_ident(dp.name) + "_ctrl";
  os << "// Functional-mode controller generated by lowbist for '"
     << dp.name << "'\n";
  os << "module " << name << " (\n";
  os << "  input  wire clk,\n  input  wire rst,\n";
  os << "  input  wire start,\n  output reg  done,\n  output reg  busy";

  // Output declarations mirror the data path's control inputs.
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    const auto& reg = dp.registers[r];
    const std::string rn = verilog_ident(reg.name);
    os << ",\n  output reg  en_" << rn;
    const std::size_t n_src =
        reg.source_modules.size() +
        ((reg.external_source || reg.dedicated_input) ? 1u : 0u);
    if (n_src > 1) os << ",\n  output reg  [3:0] sel_" << rn;
  }
  for (const auto& mod : dp.modules) {
    const std::string mn = verilog_ident(mod.name);
    if (mod.left_sources.size() > 1) os << ",\n  output reg  [3:0] sel_"
                                        << mn << "_l";
    if (mod.right_sources.size() > 1) os << ",\n  output reg  [3:0] sel_"
                                         << mn << "_r";
    if (mod.proto.supports.size() > 1) os << ",\n  output reg  [3:0] op_"
                                          << mn;
  }
  os << "\n);\n\n";

  os << "  localparam LAST_STEP = " << ctl.num_steps() << ";\n";
  os << "  reg [15:0] step;\n\n";

  // Default (idle) values and per-step drive.
  os << "  always @(*) begin\n";
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    const auto& reg = dp.registers[r];
    const std::string rn = verilog_ident(reg.name);
    os << "    en_" << rn << " = 1'b0;\n";
    const std::size_t n_src =
        reg.source_modules.size() +
        ((reg.external_source || reg.dedicated_input) ? 1u : 0u);
    if (n_src > 1) os << "    sel_" << rn << " = 4'd0;\n";
  }
  for (const auto& mod : dp.modules) {
    const std::string mn = verilog_ident(mod.name);
    if (mod.left_sources.size() > 1) os << "    sel_" << mn
                                        << "_l = 4'd0;\n";
    if (mod.right_sources.size() > 1) os << "    sel_" << mn
                                         << "_r = 4'd0;\n";
    if (mod.proto.supports.size() > 1) os << "    op_" << mn << " = 4'd0;\n";
  }
  os << "    if (busy) begin\n      case (step)\n";
  for (int s = 0; s <= ctl.num_steps(); ++s) {
    const ControlWord& word = ctl.word(s);
    os << "        16'd" << s << ": begin\n";
    for (std::size_t r = 0; r < dp.registers.size(); ++r) {
      const RegControl& rc = word.regs[r];
      if (!rc.enable) continue;
      const auto& reg = dp.registers[r];
      const std::string rn = verilog_ident(reg.name);
      os << "          en_" << rn << " = 1'b1;\n";
      const std::size_t n_src =
          reg.source_modules.size() +
          ((reg.external_source || reg.dedicated_input) ? 1u : 0u);
      if (n_src > 1) {
        os << "          sel_" << rn << " = 4'd" << rc.select << ";\n";
      }
    }
    for (std::size_t m = 0; m < dp.modules.size(); ++m) {
      const ModuleControl& mc = word.modules[m];
      if (!mc.active) continue;
      const auto& mod = dp.modules[m];
      const std::string mn = verilog_ident(mod.name);
      if (mod.left_sources.size() > 1) {
        os << "          sel_" << mn << "_l = 4'd" << mc.left_select
           << ";\n";
      }
      if (mod.right_sources.size() > 1) {
        os << "          sel_" << mn << "_r = 4'd" << mc.right_select
           << ";\n";
      }
      if (mod.proto.supports.size() > 1) {
        os << "          op_" << mn << " = 4'd"
           << kind_index(mod.proto, mc.op) << ";\n";
      }
    }
    os << "        end\n";
  }
  os << "        default: ;\n      endcase\n    end\n  end\n\n";

  os << "  always @(posedge clk) begin\n";
  os << "    if (rst) begin\n";
  os << "      step <= 16'd0; busy <= 1'b0; done <= 1'b0;\n";
  os << "    end else if (!busy) begin\n";
  os << "      done <= 1'b0;\n";
  os << "      if (start) begin busy <= 1'b1; step <= 16'd0; end\n";
  os << "    end else if (step == LAST_STEP) begin\n";
  os << "      busy <= 1'b0; done <= 1'b1;\n";
  os << "    end else begin\n";
  os << "      step <= step + 16'd1;\n";
  os << "    end\n";
  os << "  end\n";
  os << "endmodule\n";
  return os.str();
}

}  // namespace lbist
