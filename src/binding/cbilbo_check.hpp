#pragma once
// Exact CBILBO conditions (Section III.B, Lemmas 1 and 2).
//
// A register must be a CBILBO only if it acts as TPG and SA *for the same
// module* in every possible BIST embedding of the (minimum-interconnect)
// data path.  Lemma 2 characterizes this purely in terms of the register
// binding:
//
//   Case (i):  R_x holds ALL output variables of module M_k and holds at
//              least one operand of EVERY instance of M_k.
//   Case (ii): the outputs of M_k are split across exactly two registers
//              R_x and R_y, and BOTH hold at least one operand of every
//              instance of M_k (symmetric — either one can be the CBILBO).
//
// Lemma 1 (|OR_k| <= 2 whenever a CBILBO is forced) is implied: three or
// more output registers always leave a non-TPG SA choice.
//
// The checker reads the variable -> register map, in which an unplaced
// variable is invalid, so the BIST-aware binder's tests can query it on
// partial bindings.  Each variable lives in at most one register, so each
// module needs one pass over its outputs (in one or two registers, all
// placed) and its instances, whose operand lists hold at most two
// variables.

#include <vector>

#include "binding/module_binding.hpp"
#include "support/ids.hpp"

namespace lbist {

/// One forced CBILBO occurrence.
struct ForcedCbilbo {
  RegId reg;           ///< the register forced to be a CBILBO
  ModuleId module;     ///< the module whose test forces it
  int lemma_case = 0;  ///< 1 or 2 (which case of Lemma 2 fired)
  RegId partner;       ///< the R_y of case (ii); invalid for case (i)
};

/// Evaluates Lemma 2 over a (possibly partial) binding given as each
/// variable's register, invalid where the variable is not placed.  Returns
/// every (register, module) pair where the conditions hold, in module
/// order.  A case-(ii) pair is reported once, as the lower-indexed
/// register with `partner` set.
[[nodiscard]] std::vector<ForcedCbilbo> forced_cbilbos(
    const ModuleBinding& mb, const IdMap<VarId, RegId>& reg_of);

}  // namespace lbist
