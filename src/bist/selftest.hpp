#pragma once
// Chip-level self-test execution — "the chip has the capability to test
// itself", actually run.
//
// Unlike simulate_module_bist (which grades a module under the generic
// seeds), this engine runs the *complete* test plan on the structural data
// path: session by session, the registers selected by the allocator are
// reconfigured into their roles (TPG registers become LFSRs, SA registers
// MISRs, CBILBOs both at once), patterns flow through the real port
// multiplexers to every module under test, and each module's signature is
// compacted by its own SA.  Faults are injected at module ports and
// detection is judged exactly as on silicon: some signature differs from
// the fault-free reference.
//
// This closes the last gap between "the allocator said these registers
// suffice" and "running the self-test program detects the faults": every
// embedding is first checked against the netlist's connections, so a bogus
// one (TPG not connected to the port it is supposed to drive) throws.
// Each SA then compacts one module per session and every sub-session
// restarts its generators from the chip seeds, so each module is graded on
// its own by the session simulator (bist/session_sim.hpp) with its
// embedding's chip seeds; that equals re-running the whole chip per fault.

#include <vector>

#include "bist/allocator.hpp"
#include "bist/fault_sim.hpp"
#include "bist/sessions.hpp"
#include "rtl/datapath.hpp"

namespace lbist {

/// A fault localized to one module's ports.
struct ModuleFault {
  std::size_t module = 0;
  StuckFault fault;
};

/// Outcome of one full self-test run.
struct SelfTestResult {
  /// Per-module fault-free signatures, one per supported function
  /// (reference values a tester would store in ROM).
  std::vector<std::vector<std::uint32_t>> golden_signatures;
  int faults_injected = 0;
  int faults_detected = 0;
  /// Faults whose injection left every signature untouched.
  std::vector<ModuleFault> escapes;

  [[nodiscard]] double coverage() const {
    return faults_injected == 0
               ? 1.0
               : static_cast<double>(faults_detected) / faults_injected;
  }
};

/// Grades every port fault of every testable module under the plan.
/// `patterns` is capped at the TPG period.  Throws lbist::Error if an
/// embedding references a connection the netlist does not have.
[[nodiscard]] SelfTestResult run_self_test(const Datapath& dp,
                                           const BistSolution& solution,
                                           int patterns, int width);

}  // namespace lbist
