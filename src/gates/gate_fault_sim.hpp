#pragma once
// Gate-level stuck-at fault simulation under the BIST configuration: the
// gate fault universe of the session simulator (bist/session_sim.hpp).
// Maximal-length LFSRs drive both operand ports, the netlist is evaluated
// 64 clocks at a time, a MISR compacts the outputs, and every internal
// gate node is graded stuck-at-0/1.
//
// Complements bist/fault_sim.hpp (port faults): the port model is
// implementation-independent (the paper's working assumption), the gate
// model validates that assumption on concrete ripple/array structures.
//
// Beyond the aggregate grader, this header exposes the hooks the hybrid
// test-session model (src/hybrid/) needs: a seeded session variant that
// reports *which* faults stay undetected (the hard faults reseeding must
// target), per-fault input cones for seed computation, and alias-free
// single-pattern detection checks.

#include "bist/fault_sim.hpp"
#include "gates/module_builders.hpp"

namespace lbist {

/// All 2*N stuck-at faults on the netlist's nodes (gate outputs, primary
/// inputs and constants — a stuck tie-cell is a real defect; its
/// stuck-at-same-value variant is redundant and simply stays undetected).
struct GateFault {
  int node = 0;
  bool stuck_one = false;
};
[[nodiscard]] std::vector<GateFault> enumerate_gate_faults(
    const GateNetlist& netlist);

/// Fault-simulates pseudo-random BIST of a gate-level module under the
/// generic TPG seeds (one sequence on both ports when `independent_tpgs`
/// is false), MISR signature per run.  `patterns` is capped at one LFSR
/// period.  Returns detected/total over all gate faults.
[[nodiscard]] CoverageResult simulate_gate_bist(const ModuleNetlist& module,
                                                int patterns,
                                                bool independent_tpgs = true);

/// Outcome of one seeded pseudo-random session with the full per-fault
/// verdict retained.
struct GateBistDetail {
  CoverageResult summary;
  std::uint32_t golden_signature = 0;
  /// Faults whose MISR signature matched the golden one — the hard faults
  /// a reseed or deterministic top-up phase must pick up.  Enumeration
  /// order (ascending node, stuck-0 before stuck-1).
  std::vector<GateFault> undetected;
};

/// Same session model as simulate_gate_bist but with explicit TPG chip
/// seeds (both non-zero), and the per-fault detail kept.  `patterns` is
/// capped at one LFSR period.
[[nodiscard]] GateBistDetail simulate_gate_bist_seeded(
    const ModuleNetlist& module, std::uint32_t seed_a, std::uint32_t seed_b,
    int patterns);

/// Primary-input nodes in the transitive fan-in of `node`, ascending.
/// The support of a fault site: any test for the fault can only be
/// sensitized through these inputs, so seed search may enumerate this
/// (usually small) cone instead of the full 2*width input space.
[[nodiscard]] std::vector<int> fault_cone_inputs(const GateNetlist& netlist,
                                                 int node);

/// True when operand pattern (a, b) makes the faulty module's outputs
/// differ from the golden outputs — ideal (alias-free) observation, the
/// criterion seed search uses before committing a reseed.
[[nodiscard]] bool pattern_detects_fault(const ModuleNetlist& module,
                                         std::uint32_t a, std::uint32_t b,
                                         const GateFault& fault);

}  // namespace lbist
