#pragma once
// Structural Verilog emitter.  Renders the allocated data path as a
// synthesizable RTL skeleton: one always-block register per DpRegister (with
// an input mux over its sources), one input mux per module port, and one
// combinational functional unit per module.  Control (mux selects, register
// enables) is brought out as ports — the controller is outside the paper's
// scope, exactly as in the original flow.

#include <string>
#include <vector>

#include "rtl/controller.hpp"
#include "rtl/datapath.hpp"

namespace lbist {

/// Emits a single Verilog module named after the datapath, with the ports
/// datapath_ports(dp, bit_width) lists.
[[nodiscard]] std::string emit_verilog(const Datapath& dp, int bit_width = 8);

/// The module-port declarations of `ports` as emit_verilog writes them,
/// one per line, comma-separated (e.g. "  input  wire [1:0] sel_R3").
[[nodiscard]] std::string port_declarations(const std::vector<DpPort>& ports);

/// A mux as a Verilog expression: `inputs[0]` when `select` is empty (a
/// one-input mux is a wire), else the chain
/// `(select == 0) ? inputs[0] : ... : inputs.back()`.
[[nodiscard]] std::string mux_expr(const std::string& select,
                                   const std::vector<std::string>& inputs);

/// Module m's function unit `M_y` over its port wires `M_l` and `M_r`,
/// then its `ctrl_M` output if it has one: one operator, or, for a module
/// with an op port, a case on `op_signal`, which carries that port's value.
[[nodiscard]] std::string function_unit(const Datapath& dp,
                                        const std::vector<DpPort>& ports,
                                        std::size_t m,
                                        const std::string& op_signal,
                                        int width);

/// The signals register r's input mux chooses among, in select order
/// (Controller::register_sources): module results `M_y`, then `load_R`.
/// A register no source writes holds its own `R_q`.
[[nodiscard]] std::vector<std::string> register_mux_inputs(const Datapath& dp,
                                                           std::size_t r);

/// `s` with every character outside [A-Za-z0-9_] replaced by '_'.
[[nodiscard]] std::string verilog_ident(std::string s);

/// The Verilog operator of an operation kind ("+", "-", "*", ...).
[[nodiscard]] const char* verilog_op(OpKind k);

/// Position of `kind` in `proto.supports` — the ALU opcode that selects it.
/// Throws lbist::Error if the module does not implement `kind`.
[[nodiscard]] int kind_index(const ModuleProto& proto, OpKind kind);

}  // namespace lbist
