#include "rtl/verilog_controller.hpp"

#include <algorithm>
#include <sstream>

#include "rtl/verilog.hpp"

namespace lbist {

std::string emit_controller_verilog(const Datapath& dp,
                                    const Controller& ctl) {
  // The data width sizes only load and out, which the controller lacks.
  std::vector<DpPort> ports = datapath_ports(dp, /*width=*/1);
  std::erase_if(ports, [](const DpPort& p) { return !p.is_control(); });
  auto literal = [](const DpPort& p, int value) {
    return (p.kind == DpPort::Kind::Enable ? "1'b"
                                           : std::to_string(p.width) + "'d") +
           std::to_string(value);
  };

  std::ostringstream os;
  const std::string name = verilog_ident(dp.name) + "_ctrl";
  os << "// Functional-mode controller generated by lowbist for '"
     << dp.name << "'\n";
  os << "module " << name << " (\n";
  os << "  input  wire clk,\n  input  wire rst,\n";
  os << "  input  wire start,\n  output reg  done,\n  output reg  busy";
  for (const DpPort& p : ports) {
    os << ",\n  output reg  " << p.range() << p.name;
  }
  os << "\n);\n\n";

  // The step counter holds 0..LAST_STEP: 16 bits, or wider if LAST_STEP
  // needs more.
  const int step_bits = std::max(
      16, select_bits(static_cast<std::size_t>(ctl.num_steps()) + 1));
  const std::string step_lit = std::to_string(step_bits) + "'d";
  os << "  localparam LAST_STEP = " << ctl.num_steps() << ";\n";
  os << "  reg [" << step_bits - 1 << ":0] step;\n\n";

  // Default (idle) values and per-step drive.
  os << "  always @(*) begin\n";
  for (const DpPort& p : ports) {
    os << "    " << p.name << " = " << literal(p, 0) << ";\n";
  }
  os << "    if (busy) begin\n      case (step)\n";
  for (int s = 0; s <= ctl.num_steps(); ++s) {
    os << "        " << step_lit << s << ": begin\n";
    for (const DpPort& p : ports) {
      if (const auto v = p.value(dp, ctl.word(s))) {
        os << "          " << p.name << " = " << literal(p, *v) << ";\n";
      }
    }
    os << "        end\n";
  }
  os << "        default: ;\n      endcase\n    end\n  end\n\n";

  os << "  always @(posedge clk) begin\n";
  os << "    if (rst) begin\n";
  os << "      step <= " << step_lit
     << "0; busy <= 1'b0; done <= 1'b0;\n";
  os << "    end else if (!busy) begin\n";
  os << "      done <= 1'b0;\n";
  os << "      if (start) begin busy <= 1'b1; step <= " << step_lit
     << "0; end\n";
  os << "    end else if (step == LAST_STEP) begin\n";
  os << "      busy <= 1'b0; done <= 1'b1;\n";
  os << "    end else begin\n";
  os << "      step <= step + " << step_lit << "1;\n";
  os << "    end\n";
  os << "  end\n";
  os << "endmodule\n";
  return os.str();
}

}  // namespace lbist
