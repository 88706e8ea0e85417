#include "rtl/verilog.hpp"

#include <cctype>
#include <sstream>
#include <tuple>
#include <vector>

#include "support/check.hpp"

namespace lbist {

std::string verilog_ident(std::string s) {
  for (char& c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_')) {
      c = '_';
    }
  }
  return s;
}

const char* verilog_op(OpKind k) {
  switch (k) {
    case OpKind::Add: return "+";
    case OpKind::Sub: return "-";
    case OpKind::Mul: return "*";
    case OpKind::Div: return "/";
    case OpKind::And: return "&";
    case OpKind::Or: return "|";
    case OpKind::Xor: return "^";
    case OpKind::Lt: return "<";
    case OpKind::Gt: return ">";
  }
  return "+";
}

int kind_index(const ModuleProto& proto, OpKind kind) {
  for (std::size_t i = 0; i < proto.supports.size(); ++i) {
    if (proto.supports[i] == kind) return static_cast<int>(i);
  }
  throw Error("module does not implement the scheduled operation kind");
}

std::string port_declarations(const std::vector<DpPort>& ports) {
  std::string text;
  for (const DpPort& p : ports) {
    text += std::string(text.empty() ? "" : ",\n") + "  " +
            (p.is_output() ? "output" : "input ") + " wire " + p.range() +
            p.name;
  }
  return text + "\n";
}

std::string mux_expr(const std::string& select,
                     const std::vector<std::string>& inputs) {
  LBIST_CHECK(!inputs.empty() && (inputs.size() == 1 || !select.empty()),
              "a mux needs an input, and a select if it has two or more");
  std::string expr;
  for (std::size_t i = 0; i + 1 < inputs.size(); ++i) {
    expr += "(" + select + " == " + std::to_string(i) + ") ? " + inputs[i] +
            " : ";
  }
  return expr + inputs.back();
}

std::string function_unit(const Datapath& dp,
                          const std::vector<DpPort>& ports, std::size_t m,
                          const std::string& op_signal, int width) {
  const DpModule& mod = dp.modules[m];
  const std::string mn = verilog_ident(mod.name);
  const std::string range = "[" + std::to_string(width - 1) + ":0] ";
  std::ostringstream os;
  if (const DpPort* op = find_port(ports, DpPort::Kind::Op, m)) {
    os << "  reg " << range << mn << "_y_r;\n";
    os << "  always @(*) begin\n    case (" << op_signal << ")\n";
    for (std::size_t k = 0; k < mod.proto.supports.size(); ++k) {
      os << "      " << op->width << "'d" << k << ": " << mn << "_y_r = "
         << mn << "_l " << verilog_op(mod.proto.supports[k]) << " " << mn
         << "_r;\n";
    }
    os << "      default: " << mn << "_y_r = {" << width << "{1'b0}};\n";
    os << "    endcase\n  end\n";
    os << "  wire " << range << mn << "_y = " << mn << "_y_r;\n";
  } else {
    os << "  wire " << range << mn << "_y = " << mn << "_l "
       << verilog_op(mod.proto.supports[0]) << " " << mn << "_r;\n";
  }
  if (const DpPort* ctrl = find_port(ports, DpPort::Kind::Ctrl, m)) {
    os << "  assign " << ctrl->name << " = " << mn << "_y[0];\n";
  }
  return os.str();
}

std::vector<std::string> register_mux_inputs(const Datapath& dp,
                                             std::size_t r) {
  const std::string rn = verilog_ident(dp.registers[r].name);
  std::vector<std::string> inputs;
  for (int src : Controller::register_sources(dp, r)) {
    inputs.push_back(
        src < 0 ? "load_" + rn
                : verilog_ident(
                      dp.modules[static_cast<std::size_t>(src)].name) +
                      "_y");
  }
  if (inputs.empty()) inputs.push_back(rn + "_q");  // hold-only register
  return inputs;
}

std::string emit_verilog(const Datapath& dp, int bit_width) {
  using Kind = DpPort::Kind;
  const int w = bit_width;
  const std::vector<DpPort> ports = datapath_ports(dp, w);
  auto port_name = [&](Kind kind, std::size_t owner) {
    const DpPort* port = find_port(ports, kind, owner);
    return port != nullptr ? port->name : std::string();
  };
  std::ostringstream os;
  os << "// Generated by lowbist from datapath '" << dp.name << "'\n";
  os << "module " << verilog_ident(dp.name) << " (\n";
  os << "  input  wire clk,\n";
  os << "  input  wire rst,\n";
  os << port_declarations(ports) << ");\n\n";

  for (const auto& reg : dp.registers) {
    os << "  reg [" << w - 1 << ":0] " << verilog_ident(reg.name) << "_q;\n";
  }
  os << "\n";

  // Module input muxes and functional units.
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    const DpModule& mod = dp.modules[m];
    const std::string mn = verilog_ident(mod.name);
    for (const auto& [side, kind, sources] :
         {std::tuple{"_l", Kind::LeftSelect, &mod.left_sources},
          std::tuple{"_r", Kind::RightSelect, &mod.right_sources}}) {
      std::vector<std::string> inputs;
      for (std::size_t r : *sources) {
        inputs.push_back(verilog_ident(dp.registers[r].name) + "_q");
      }
      os << "  wire [" << w - 1 << ":0] " << mn << side << " = "
         << mux_expr(port_name(kind, m), inputs) << ";\n";
    }
    os << function_unit(dp, ports, m, port_name(Kind::Op, m), w) << "\n";
  }

  // Registers with input muxes.
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    const std::string rn = verilog_ident(dp.registers[r].name);
    os << "  wire [" << w - 1 << ":0] " << rn << "_d = "
       << mux_expr(port_name(Kind::Select, r), register_mux_inputs(dp, r))
       << ";\n";
    os << "  always @(posedge clk) begin\n";
    os << "    if (rst) " << rn << "_q <= {" << w << "{1'b0}};\n";
    os << "    else if (" << port_name(Kind::Enable, r) << ") " << rn
       << "_q <= " << rn << "_d;\n";
    os << "  end\n";
    if (const DpPort* out = find_port(ports, Kind::Out, r)) {
      os << "  assign " << out->name << " = " << rn << "_q;\n";
    }
    os << "\n";
  }

  os << "endmodule\n";
  return os.str();
}

}  // namespace lbist
