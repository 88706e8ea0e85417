#pragma once
// Structural RTL data-path model: registers, functional modules and the
// multiplexed connections between them — the output of allocation and the
// input to BIST resource selection.
//
// Connectivity is stored at the granularity BIST analysis needs: for each
// module, the set of registers that can drive its left/right input port
// (through an input multiplexer) and the set of registers its output can be
// written to.  A connection in these sets is exactly a *simple I-path* in
// the sense of Abadir/Breuer (Definition 1 of the paper): data moves
// register -> port or port -> register unaltered, activated by mux controls.
//
// Register index space: [0, num_allocated) are the registers produced by
// register binding; [num_allocated, registers.size()) are dedicated input
// registers holding port-resident primary inputs (present in the netlist
// and usable as test resources, but not counted in the paper's "# Reg").

#include <set>
#include <string>
#include <vector>

#include "binding/module_spec.hpp"
#include "support/ids.hpp"

namespace lbist {

/// A physical register.
struct DpRegister {
  std::string name;
  /// Variables stored over time (one per control step at most).
  std::vector<VarId> vars;
  /// True for a dedicated (uncounted) input register.
  bool dedicated_input = false;
  /// Modules whose outputs are muxed into this register.
  std::set<std::size_t> source_modules;
  /// True if a primary input is loaded into this register from outside.
  bool external_source = false;
  /// True if a primary output is read from this register.
  bool drives_output = false;
};

/// A functional module with its input-port connectivity.
struct DpModule {
  std::string name;
  ModuleProto proto;
  std::vector<OpId> instances;
  /// Registers connected (through the port mux) to the left input port.
  std::set<std::size_t> left_sources;
  /// Registers connected to the right input port.
  std::set<std::size_t> right_sources;
  /// Registers the output port writes to.
  std::set<std::size_t> dest_registers;
  /// True if some instance's result is consumed by the controller only.
  bool drives_control = false;
};

/// How each operand of each operation is routed (for reporting/emission).
struct OperandRoute {
  std::size_t reg = 0;  ///< source register index
  bool to_left = true;  ///< which module port receives it
};

/// The complete data path.
struct Datapath {
  std::string name;
  std::vector<DpRegister> registers;
  std::vector<DpModule> modules;
  std::size_t num_allocated = 0;  ///< registers counted in "# Reg"
  /// Per operation: routing of (lhs, rhs) to module ports.
  IdMap<OpId, std::pair<OperandRoute, OperandRoute>> routes;

  /// Number of multiplexers, the paper's "# Mux" column: one per
  /// destination (module input port or register input) with two or more
  /// sources.  The area model charges a k-input mux separately.
  [[nodiscard]] int mux_count() const;

  /// Registers that are simultaneously a source and a destination of the
  /// same module (self-adjacent registers, the quantity RALLOC minimizes).
  [[nodiscard]] std::vector<std::size_t> self_adjacent_registers() const;

  /// Human-readable structural summary (used for the Fig. 5 reproduction).
  [[nodiscard]] std::string describe() const;

  /// Graphviz rendering.
  [[nodiscard]] std::string to_dot() const;
};

}  // namespace lbist
