#pragma once
// Benchmark DFGs used in the paper's evaluation (Table I-III), reconstructed.
//
// The paper's figures are not machine-readable and two of the sources (the
// Papachristou DAC'91 example, the Tseng/FACET behaviour) are only available
// in prose, so each DFG here is a documented reconstruction that preserves
// the structural facts the paper states:
//
//  * ex1    — the paper's Fig. 2: 4 operations (2 add, 2 mul), 8 variables
//             a..h, minimum of 3 registers, module sets I_M1 = {a,b,c,d},
//             O_M1 = {d,f} under the module assignment {add1,add2} -> M1,
//             {mul1,mul2} -> M2.  (The paper's running example contains a
//             small arithmetic inconsistency in its SD trace; our ex1 is
//             self-consistent and pins the same invariants.)
//  * ex2    — stand-in for the DFG taken from Papachristou et al. DAC'91:
//             7 operations (1 div, 3 mul, 2 add, 1 and), 13 variables,
//             minimum of 5 registers, module assignment 1/, 2*, 2+, 1&.
//  * tseng  — stand-in for the Tseng/FACET benchmark: 8 operations
//             (3 add, 1 sub, 1 mul, 1 div, 1 and, 1 or), minimum of
//             5 registers; two module assignments as in the paper:
//             Tseng1 = 2+,1*,1-,1&,1|,1/  and  Tseng2 = 1+ and 3 ALUs.
//  * paulin — the Paulin/HAL differential-equation solver (well published):
//             6 mul, 2 add, 2 sub, 1 compare over 4 control steps with
//             2 multipliers; loop inputs (x, u, dx, y, a, the constant 3)
//             are port-resident (the paper's register counts for this
//             benchmark exclude architectural input registers — with them
//             included no 4-register binding exists), and the loop-exit
//             compare result is control-only.  Minimum of 4 registers,
//             matching Table I.
//
// `make_fir` builds a parameterized FIR filter DFG (unscheduled; use the
// sched library) for the scaling experiments.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dfg/parse.hpp"

namespace lbist {

/// A reconstructed benchmark: scheduled DFG plus the paper's pinned module
/// assignment spec (syntax of binding/module_spec.hpp).
struct Benchmark {
  std::string name;
  ParsedDfg design;
  std::string module_spec;
};

[[nodiscard]] Benchmark make_ex1();
[[nodiscard]] Benchmark make_ex2();
[[nodiscard]] Benchmark make_tseng1();
[[nodiscard]] Benchmark make_tseng2();
[[nodiscard]] Benchmark make_paulin();

/// The diff-eq solver as it actually runs — a loop: x, u, y are allocated
/// registers carried across iterations (x1 -> x etc.), only the constants
/// (dx, a, 3) stay port-resident.  Exercises the loop-aware binder and
/// shows the self-adjacency cost the paper's straight-line model avoids.
[[nodiscard]] Benchmark make_paulin_loop();

/// The five rows of Table I, in paper order.
[[nodiscard]] std::vector<Benchmark> paper_benchmarks();

/// The built-in benchmark named `name` ("ex1", "ex2", "tseng" or "tseng1",
/// "tseng2", "paulin", "paulin-loop"), or nullopt for any other name.
[[nodiscard]] std::optional<Benchmark> find_benchmark(std::string_view name);

/// Parameterized FIR filter: `taps` multiplies plus a balanced adder tree.
/// Unscheduled; coefficients and sample window are port-resident inputs.
[[nodiscard]] Dfg make_fir(int taps);

/// Cascade of direct-form-I IIR biquad sections (5 mul, 3 add, 1 sub per
/// section, chained through the section output).  Coefficients and delayed
/// samples are port-resident.  Unscheduled.
[[nodiscard]] Dfg make_biquad_cascade(int sections);

/// Normalized lattice filter: per stage, f_i = f_{i-1} - k_i*b_{i-1} and
/// b_i = b_{i-1} - k_i*f_i — a deep, serial DFG (long critical path), the
/// opposite register-pressure profile from the FIR tree.  Unscheduled.
[[nodiscard]] Dfg make_lattice(int stages);

/// Complex multiply (ar+j*ai)*(br+j*bi): 4 mul, 1 sub, 1 add.  Unscheduled.
[[nodiscard]] Dfg make_complex_mult();

/// 2x2 matrix product C = A*B: 8 mul, 4 add — wide and shallow, a
/// module-sharing stress test.  Unscheduled.
[[nodiscard]] Dfg make_mat2x2();

}  // namespace lbist
