#pragma once
// Controller generation: turns a bound, scheduled design into the per-step
// control words (register enables, mux selects, ALU opcodes) that drive the
// structural data path.  The paper leaves the controller out of scope; we
// generate it so the allocation results can be *executed* — the simulator
// (rtl/simulate.hpp) runs these words against the netlist and checks the
// data path computes exactly what the DFG specifies.

#include <optional>
#include <string>
#include <vector>

#include "binding/module_binding.hpp"
#include "binding/register_binding.hpp"
#include "dfg/dfg.hpp"
#include "dfg/lifetime.hpp"
#include "dfg/schedule.hpp"
#include "rtl/datapath.hpp"

namespace lbist {

/// Control of one register for one step.
struct RegControl {
  bool enable = false;
  /// Index into the register's source list (sorted source modules, then
  /// the external input port); -1 when disabled.
  int select = -1;
  /// The variable written this step (for tracing); invalid when disabled.
  VarId var;
};

/// Control of one module for one step.
struct ModuleControl {
  bool active = false;
  /// Index into the sorted left/right source-register lists; -1 if idle.
  int left_select = -1;
  int right_select = -1;
  OpKind op = OpKind::Add;
  /// The DFG operation executing (for tracing); invalid when idle.
  OpId instance;
};

/// One step's worth of control.
struct ControlWord {
  std::vector<RegControl> regs;
  std::vector<ModuleControl> modules;
};

/// The control program: word 0 performs the initial input loads (values
/// live before step 1); word s (1-based) drives control step s, with its
/// register writes taking effect at the end of the step.
class Controller {
 public:
  static Controller generate(const Dfg& dfg, const Schedule& sched,
                             const RegisterBinding& rb, const Datapath& dp,
                             const IdMap<VarId, LiveInterval>& lifetimes);

  /// Number of control steps (words run 0..num_steps inclusive).
  [[nodiscard]] int num_steps() const {
    return static_cast<int>(words_.size()) - 1;
  }
  [[nodiscard]] const ControlWord& word(int s) const {
    return words_[static_cast<std::size_t>(s)];
  }

  /// Source list of register r as the controller sees it: sorted source
  /// module indices, then (if present) the external input port.  Its
  /// input mux in every RTL text follows this order.
  [[nodiscard]] static std::vector<int> register_sources(const Datapath& dp,
                                                         std::size_t r);

 private:
  std::vector<ControlWord> words_;
};

/// One port of the data-path module emit_verilog writes, other than clk
/// and rst.  The controller, testbench and BIST top read their interface
/// from datapath_ports, so they match the data path at any mux width.
struct DpPort {
  /// load_R, en_R, sel_R and out_R of register `owner`, then sel_M_l,
  /// sel_M_r, op_M and ctrl_M of module `owner`.  A select picks among its
  /// mux inputs in register_sources order (register R) or ascending
  /// register order (module ports); op_M is kind_index of the function.
  enum class Kind {
    Load, Enable, Select, Out,          // register ports
    LeftSelect, RightSelect, Op, Ctrl,  // module ports
  };
  Kind kind = Kind::Enable;
  std::size_t owner = 0;
  std::string name;
  int width = 1;  ///< bits

  [[nodiscard]] bool is_output() const {
    return kind == Kind::Out || kind == Kind::Ctrl;
  }
  /// en, sel and op: the inputs a control word drives.
  [[nodiscard]] bool is_control() const {
    return kind != Kind::Load && !is_output();
  }
  /// The Verilog range written before the name: none for the single-bit
  /// en and ctrl, "[width-1:0] " for the rest (a 2-input select too).
  [[nodiscard]] std::string range() const {
    if (kind == Kind::Enable || kind == Kind::Ctrl) return "";
    return "[" + std::to_string(width - 1) + ":0] ";
  }
  /// The value `word` puts on this control port, or nullopt when the word
  /// leaves its register disabled or its module idle (the controller
  /// holds every control port at 0 then).  Throws lbist::Error for load,
  /// out and ctrl.
  [[nodiscard]] std::optional<int> value(const Datapath& dp,
                                         const ControlWord& word) const;
};

/// The ports of emit_verilog(dp, width) after clk and rst, in its order:
/// per register load_R (if primary inputs enter it), en_R, sel_R (two or
/// more mux inputs), out_R (drives a primary output); then per module
/// sel_M_l, sel_M_r (two or more sources), op_M (two or more functions),
/// ctrl_M (drives the controller).  A select is select_bits(#inputs) wide,
/// load and out `width`, op 4 bits.
[[nodiscard]] std::vector<DpPort> datapath_ports(const Datapath& dp,
                                                 int width);

/// The port of `kind` owned by register or module `owner` in `ports` (as
/// datapath_ports returns them), or nullptr if it has none.
[[nodiscard]] const DpPort* find_port(const std::vector<DpPort>& ports,
                                      DpPort::Kind kind, std::size_t owner);

/// Bits of a select over `n_inputs` mux inputs (at least 1).
[[nodiscard]] int select_bits(std::size_t n_inputs);

}  // namespace lbist
