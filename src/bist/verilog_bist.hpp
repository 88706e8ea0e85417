#pragma once
// Self-testing RTL emission — the end product of the whole flow: the data
// path with its selected registers replaced by BILBO/CBILBO test registers,
// plus an on-chip BIST controller that sequences the test sessions, applies
// the pattern budget, compares every signature analyzer against a golden
// ROM (computed by the C++ self-test engine) and raises pass/fail.
//
// Emitted modules:
//   lowbist_bilbo   — 4-mode register: NORMAL (load), HOLD, TPG (LFSR),
//                     SA (MISR); parameterized width and taps.
//   lowbist_cbilbo  — concurrent BILBO: generator and compactor halves.
//   <name>_bist     — the data path with test registers and a `bist_run`
//                     port; functional behaviour is preserved when
//                     bist_run = 0.  Its functional ports are exactly
//                     emit_verilog's (datapath_ports, rtl/controller.hpp).
//
// Transparency-extended solutions are rejected (their session sequencing
// needs per-path identity constants; run those plans in the C++ engine).

#include <string>

#include "bist/selftest.hpp"
#include "rtl/datapath.hpp"

namespace lbist {

/// Emits the complete self-testing design.  `golden` must come from
/// run_self_test on the same (dp, solution, patterns, width).
[[nodiscard]] std::string emit_bist_verilog(const Datapath& dp,
                                            const BistSolution& solution,
                                            const SelfTestResult& golden,
                                            int patterns, int width);

}  // namespace lbist
