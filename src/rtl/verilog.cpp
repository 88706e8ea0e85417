#include "rtl/verilog.hpp"

#include <cctype>
#include <sstream>
#include <vector>

#include "support/check.hpp"

namespace lbist {

namespace {

int select_bits(std::size_t n_inputs) {
  int bits = 1;
  while ((std::size_t{1} << bits) < n_inputs) ++bits;
  return bits;
}

/// Emits `wire [W-1:0] out = mux(sel, inputs...)` as a conditional chain.
void emit_mux(std::ostringstream& os, const std::string& out,
              const std::string& sel, const std::vector<std::string>& inputs,
              int width) {
  os << "  wire [" << width - 1 << ":0] " << out << " = ";
  if (inputs.size() == 1) {
    os << inputs[0] << ";\n";
    return;
  }
  for (std::size_t i = 0; i + 1 < inputs.size(); ++i) {
    os << "(" << sel << " == " << i << ") ? " << inputs[i] << " : ";
  }
  os << inputs.back() << ";\n";
}

}  // namespace

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

std::string emit_verilog(const Datapath& dp, int bit_width) {
  const int w = bit_width;
  std::ostringstream os;
  os << "// Generated by lowbist from datapath '" << dp.name << "'\n";
  os << "module " << verilog_ident(dp.name) << " (\n";
  os << "  input  wire clk,\n";
  os << "  input  wire rst,\n";

  // Ports: external loads, register enables, mux selects, outputs.
  std::vector<std::string> port_decls;
  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    const auto& reg = dp.registers[r];
    if (reg.external_source || reg.dedicated_input) {
      port_decls.push_back("  input  wire [" + std::to_string(w - 1) +
                           ":0] load_" + verilog_ident(reg.name));
    }
    port_decls.push_back("  input  wire en_" + verilog_ident(reg.name));
    const std::size_t n_src =
        reg.source_modules.size() +
        ((reg.external_source || reg.dedicated_input) ? 1u : 0u);
    if (n_src > 1) {
      port_decls.push_back("  input  wire [" +
                           std::to_string(select_bits(n_src) - 1) +
                           ":0] sel_" + verilog_ident(reg.name));
    }
    if (reg.drives_output) {
      port_decls.push_back("  output wire [" + std::to_string(w - 1) +
                           ":0] out_" + verilog_ident(reg.name));
    }
  }
  for (const auto& mod : dp.modules) {
    if (mod.left_sources.size() > 1) {
      port_decls.push_back(
          "  input  wire [" +
          std::to_string(select_bits(mod.left_sources.size()) - 1) +
          ":0] sel_" + verilog_ident(mod.name) + "_l");
    }
    if (mod.right_sources.size() > 1) {
      port_decls.push_back(
          "  input  wire [" +
          std::to_string(select_bits(mod.right_sources.size()) - 1) +
          ":0] sel_" + verilog_ident(mod.name) + "_r");
    }
    if (mod.proto.supports.size() > 1) {
      port_decls.push_back("  input  wire [3:0] op_" + verilog_ident(mod.name));
    }
    if (mod.drives_control) {
      port_decls.push_back("  output wire ctrl_" + verilog_ident(mod.name));
    }
  }
  for (std::size_t i = 0; i < port_decls.size(); ++i) {
    os << port_decls[i] << (i + 1 < port_decls.size() ? ",\n" : "\n");
  }
  os << ");\n\n";

  for (const auto& reg : dp.registers) {
    os << "  reg [" << w - 1 << ":0] " << verilog_ident(reg.name) << "_q;\n";
  }
  os << "\n";

  // Module input muxes and functional units.
  for (const auto& mod : dp.modules) {
    const std::string mn = verilog_ident(mod.name);
    std::vector<std::string> l_in, r_in;
    for (std::size_t r : mod.left_sources) {
      l_in.push_back(verilog_ident(dp.registers[r].name) + "_q");
    }
    for (std::size_t r : mod.right_sources) {
      r_in.push_back(verilog_ident(dp.registers[r].name) + "_q");
    }
    emit_mux(os, mn + "_l", "sel_" + mn + "_l", l_in, w);
    emit_mux(os, mn + "_r", "sel_" + mn + "_r", r_in, w);
    if (mod.proto.supports.size() == 1) {
      os << "  wire [" << w - 1 << ":0] " << mn << "_y = " << mn << "_l "
         << verilog_op(mod.proto.supports[0]) << " " << mn << "_r;\n";
    } else {
      os << "  reg [" << w - 1 << ":0] " << mn << "_y_r;\n";
      os << "  always @(*) begin\n    case (op_" << mn << ")\n";
      for (std::size_t k = 0; k < mod.proto.supports.size(); ++k) {
        os << "      4'd" << k << ": " << mn << "_y_r = " << mn << "_l "
           << verilog_op(mod.proto.supports[k]) << " " << mn << "_r;\n";
      }
      os << "      default: " << mn << "_y_r = {" << w << "{1'b0}};\n";
      os << "    endcase\n  end\n";
      os << "  wire [" << w - 1 << ":0] " << mn << "_y = " << mn
         << "_y_r;\n";
    }
    if (mod.drives_control) {
      os << "  assign ctrl_" << mn << " = " << mn << "_y[0];\n";
    }
    os << "\n";
  }

  // Registers with input muxes.
  for (const auto& reg : dp.registers) {
    const std::string rn = verilog_ident(reg.name);
    std::vector<std::string> inputs;
    for (std::size_t msrc : reg.source_modules) {
      inputs.push_back(verilog_ident(dp.modules[msrc].name) + "_y");
    }
    if (reg.external_source || reg.dedicated_input) {
      inputs.push_back("load_" + rn);
    }
    if (inputs.empty()) inputs.push_back(rn + "_q");  // hold-only register
    emit_mux(os, rn + "_d", "sel_" + rn, inputs, w);
    os << "  always @(posedge clk) begin\n";
    os << "    if (rst) " << rn << "_q <= {" << w << "{1'b0}};\n";
    os << "    else if (en_" << rn << ") " << rn << "_q <= " << rn
       << "_d;\n";
    os << "  end\n";
    if (reg.drives_output) {
      os << "  assign out_" << rn << " = " << rn << "_q;\n";
    }
    os << "\n";
  }

  os << "endmodule\n";
  return os.str();
}

}  // namespace lbist
