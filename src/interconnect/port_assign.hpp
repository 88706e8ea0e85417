#pragma once
// Input-port (connectivity) assignment for one module — Section IV.
//
// Each input register of a module is connected to the left port only, the
// right port only, or both (IR^L / IR^R / IR^LR).  Pangrle showed the
// minimum-connectivity assignment minimizes |IR^LR|; the paper adds a
// testability twist: when a register *must* be connected to both ports,
// prefer it to be a high-sharing-degree register, since a register in IR^LR
// can serve as TPG for either port.
//
// We model the problem as 2-coloring of an "opposition graph": every
// instance's two operand registers must sit on opposite ports.
// Non-commutative instances pin their operands' sides; an instance whose
// operands share one register forces that register into IR^LR.  Odd cycles
// and side clashes are resolved by promoting one involved register to IR^LR
// — the highest-weight one when SD weighting is enabled.

#include <cstdint>
#include <vector>

#include "support/check.hpp"

namespace lbist {

/// Side assignment of one register relative to one module.
enum class PortSide : std::uint8_t { Unassigned, Left, Right, Both };

/// One instance's operand registers and orientation freedom.
struct PortConstraint {
  std::size_t lhs_reg = 0;
  std::size_t rhs_reg = 0;
  bool commutative = true;
};

/// Result of the assignment: `side[r]` for every register index that
/// appears in the constraints (others stay Unassigned).
struct PortAssignment {
  std::vector<PortSide> side;
  /// Registers promoted to IR^LR to resolve a clash (each promotion
  /// restarts the labelling fixpoint; forced pins are not counted).
  std::size_t promotions = 0;
  /// Number of registers connected to both ports (|IR^LR|).
  [[nodiscard]] int both_count() const {
    int c = 0;
    for (PortSide s : side) c += (s == PortSide::Both) ? 1 : 0;
    return c;
  }
};

/// Assigns sides for one module.  `num_regs` sizes the side vector;
/// `weight[r]` biases which register is promoted to IR^LR on conflicts
/// (higher weight promoted first) — pass the register sharing degrees for
/// the paper's behaviour, or an empty vector for unweighted resolution.
[[nodiscard]] PortAssignment assign_ports(
    std::size_t num_regs, const std::vector<PortConstraint>& constraints,
    const std::vector<int>& weight = {});

}  // namespace lbist
