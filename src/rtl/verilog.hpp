#pragma once
// Structural Verilog emitter.  Renders the allocated data path as a
// synthesizable RTL skeleton: one always-block register per DpRegister (with
// an input mux over its sources), one input mux per module port, and one
// combinational functional unit per module.  Control (mux selects, register
// enables) is brought out as ports — the controller is outside the paper's
// scope, exactly as in the original flow.

#include <string>

#include "rtl/datapath.hpp"

namespace lbist {

/// Emits a single Verilog module named after the datapath.
[[nodiscard]] std::string emit_verilog(const Datapath& dp, int bit_width = 8);

/// `s` with every character outside [A-Za-z0-9_] replaced by '_'.
[[nodiscard]] std::string verilog_ident(std::string s);

/// The Verilog operator of an operation kind ("+", "-", "*", ...).
[[nodiscard]] const char* verilog_op(OpKind k);

/// Position of `kind` in `proto.supports` — the ALU opcode that selects it.
/// Throws lbist::Error if the module does not implement `kind`.
[[nodiscard]] int kind_index(const ModuleProto& proto, OpKind kind);

}  // namespace lbist
