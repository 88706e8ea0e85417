#pragma once
// Loop-aware register binding (extension beyond the paper's scope).
//
// The paper restricts itself to straight-line behaviours: "if the data flow
// graph description does not contain mutual exclusion constructs and loops,
// the resulting variable conflict graph is an interval graph".  Real
// datapath loops (the diff-eq solver iterates!) carry values across
// iterations: the loop output x1 must land in the same register as the loop
// input x.  This binder honors such `Dfg::loop_ties()` by binding each tied
// pair as one *allocation unit* whose footprint is the union of the two
// live ranges — the conflict graph over units is no longer interval, so a
// plain greedy coloring replaces the PVES machinery (validity is still
// checked exactly; minimality is not guaranteed, matching the general
// circular-arc coloring situation).
//
// The resulting data paths show why the paper kept loops out: a loop
// register is input *and* output of the modules computing its update, a
// self-adjacency hotspot (see bench_loop).

#include "binding/register_binding.hpp"
#include "dfg/dfg.hpp"
#include "dfg/lifetime.hpp"

namespace lbist {

/// One allocation unit: a loop-tied (carried, init) pair or a single
/// variable.
struct AllocationUnit {
  std::vector<VarId> vars;
};

/// Groups the allocatable variables into units per the DFG's loop ties.
[[nodiscard]] std::vector<AllocationUnit> allocation_units(const Dfg& dfg);

/// Greedy unit binding: units ordered by occupied span (descending), each
/// placed first-fit in a register none of whose members it overlaps.
[[nodiscard]] RegisterBinding bind_registers_loop_aware(
    const Dfg& dfg, const IdMap<VarId, LiveInterval>& lifetimes);

}  // namespace lbist
