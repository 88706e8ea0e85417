#pragma once
// Functional-mode controller emission: the FSM companion to
// rtl/verilog.hpp's data path.  A step counter walks the control words and
// drives every enable, mux select and ALU opcode; `start` launches one
// execution of the behaviour, `done` pulses when the last step retires.
// Together with the data path module this completes a synthesizable RTL
// design (the "RTL designs" of the paper's title).

#include <string>

#include "rtl/controller.hpp"
#include "rtl/datapath.hpp"

namespace lbist {

/// Emits module `<name>_ctrl`, whose outputs are exactly the control inputs
/// (en, sel, op) of datapath_ports(dp, width), at their widths, driven
/// with each step's DpPort::value.  The step counter is 16 bits, or wider
/// when the last step needs it.
[[nodiscard]] std::string emit_controller_verilog(const Datapath& dp,
                                                  const Controller& ctl);

}  // namespace lbist
