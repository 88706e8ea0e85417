#pragma once
// Traditional (testability-oblivious) register binder — the paper's
// comparison arm ("a minimum coloring obtained without regard for
// testability", Fig. 5(b) and the Traditional HLS columns of Table I).
//
// `bind_registers_traditional` is the left-edge algorithm (Kurdahi/Parker
// track assignment): variables sorted by birth time, each packed into the
// first register free at that time.  This is what DAC-era HLS tools
// actually used; it chains producers into consumers' registers, which is
// exactly the behaviour that walks into Lemma-2 CBILBO situations.  It is
// register-count-minimum on interval conflict graphs.  (Greedy first-fit in
// reverse perfect-elimination order, the other classical minimum binder, is
// `bind_registers_bist_aware` with every BistBinderOptions switch off.)

#include "binding/register_binding.hpp"
#include "dfg/dfg.hpp"
#include "dfg/lifetime.hpp"
#include "graph/conflict.hpp"

namespace lbist {

/// Left-edge minimum binding with no testability consideration.
[[nodiscard]] RegisterBinding bind_registers_traditional(
    const Dfg& dfg, const VarConflictGraph& cg,
    const IdMap<VarId, LiveInterval>& lifetimes);

}  // namespace lbist
