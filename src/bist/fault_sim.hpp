#pragma once
// BIST fault simulation — validates that the allocated test resources
// actually test the functional modules.
//
// Fault model: single stuck-at faults on the module port bits (every bit of
// the left operand, right operand and output, stuck at 0 and at 1).  This
// boundary model is implementation-independent, matching the paper's
// premise that "the mapping of registers to TPGs and SAs is independent of
// the function and the gate-level implementation of the operator modules".
//
// Port faults are the word-level fault universe of the session simulator
// (bist/session_sim.hpp): TPG LFSRs drive the two input ports, eval_op
// computes, and the SA's MISR compacts the responses.  The same machinery
// demonstrates *why* the methodology insists on two distinct TPGs: driving
// both ports from one pattern sequence leaves operand-correlation faults
// undetected (see bench_fault_coverage).

#include <vector>

#include "binding/module_spec.hpp"
#include "bist/session_sim.hpp"

namespace lbist {

/// A single stuck-at fault on a module port bit.
struct StuckFault {
  enum class Site { LeftPort, RightPort, Output };
  Site site = Site::LeftPort;
  int bit = 0;
  bool stuck_one = false;
};

/// All 6*width port faults of a module.
[[nodiscard]] std::vector<StuckFault> enumerate_port_faults(int width);

/// Grades the port faults (enumerate_port_faults order) of a module
/// implementing `kinds`, one sub-session per kind driven by `tpgs`.
[[nodiscard]] SessionGrade grade_port_faults(const std::vector<OpKind>& kinds,
                                             const TpgPair& tpgs,
                                             int patterns, int width);

/// Simulates pseudo-random testing of a module implementing `proto` under
/// the generic TPG seeds (each supported function gets its own
/// `patterns`-long, period-capped session into the MISR).
/// With `independent_tpgs` false, one LFSR sequence drives both ports —
/// the degenerate configuration the embedding rule tpg_left != tpg_right
/// exists to prevent.
[[nodiscard]] CoverageResult simulate_module_bist(const ModuleProto& proto,
                                                  int width, int patterns,
                                                  bool independent_tpgs =
                                                      true);

}  // namespace lbist
