#pragma once
// Gate-level grading of an allocated BIST plan.
//
// bist/selftest.hpp runs the plan against word-level module semantics with
// port faults; this variant descends one level: each module's responses
// are computed by its gate netlist (src/gates), the fault universe is every
// internal gate node, and — crucially — the pattern generators are the
// *allocated* TPG registers with their chip seeds, not generic ones.  The
// result is the coverage this exact allocation achieves on this exact
// structure, the number a test engineer would sign off.
//
// Modules without a gate model (dividers) are graded with the port-fault
// model and reported separately.  That fallback is simulate_module_bist,
// so it runs under the generic seeds, not the embedding's chip seeds.

#include <string>
#include <vector>

#include "bist/allocator.hpp"
#include "bist/fault_sim.hpp"
#include "gates/module_builders.hpp"
#include "rtl/datapath.hpp"

namespace lbist {

/// Per-module gate-level outcome.
struct GateSelfTestModule {
  std::size_t module = 0;
  bool gate_level = true;  ///< false when the port model was used
  CoverageResult coverage;
};

/// Whole-plan outcome.
struct GateSelfTestResult {
  std::vector<GateSelfTestModule> modules;
  int faults_injected = 0;
  int faults_detected = 0;

  [[nodiscard]] double coverage() const {
    return faults_injected == 0
               ? 1.0
               : static_cast<double>(faults_detected) / faults_injected;
  }
};

/// One testable module as the gate-level graders walk the plan.
struct GateGradedModule {
  std::size_t module = 0;
  TpgPair tpgs;  ///< the embedding's chip seeds
  /// False when some function has no gate netlist (dividers): the module
  /// is then graded with simulate_module_bist instead.
  bool gate_level = true;
};

/// The walk run_gate_self_test and run_hybrid_session share: the plan's
/// testable modules in index order.  Throws lbist::Error when the solution
/// does not match the data path or an embedding uses a transparent path;
/// `grader` names the caller in the message.
[[nodiscard]] std::vector<GateGradedModule> gate_graded_modules(
    const Datapath& dp, const BistSolution& solution, int width,
    const std::string& grader);

/// Grades every testable module of the solution at gate level, using the
/// embedding's TPG registers (chip seeds) and a per-function MISR session,
/// `patterns` clocks each (period-capped).
[[nodiscard]] GateSelfTestResult run_gate_self_test(
    const Datapath& dp, const BistSolution& solution, int patterns,
    int width);

}  // namespace lbist
