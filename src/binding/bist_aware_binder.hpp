#pragma once
// The paper's BIST-aware register binder (Section III.A-B).
//
// Departures from plain minimum coloring, each independently switchable for
// the ablation study:
//
//  1. `sd_ordered_pves`  — the perfect vertex elimination scheme is chosen
//     so that vertices with low (SD, MCS) are eliminated first, i.e. colored
//     *last*; high-sharing variables are colored while flexibility is
//     greatest (Section III.A.1).
//  2. `delta_sd_rule`    — among non-conflicting registers, assign the
//     vertex to the register with the largest sharing-degree increase
//     ΔSD^v(R); ties broken by larger SD(R), then by an interconnect-cost
//     estimate (Section III.A.2).  At equal ΔSD that estimate differs only
//     for a primary input, which prefers a register already holding one.
//  3. `case_overrides`   — Case 1 / Case 2: when another register already
//     holds an output variable (resp. a pair of registers already holds
//     operand variables) of a module of v and has a final sharing degree
//     exceeding SD(R_i, v), prefer it, funnelling each module's test data
//     through the registers most likely to be picked as its SA/TPGs.
//  4. `avoid_cbilbo`     — before committing an assignment, evaluate the
//     Lemma 2 conditions; if the merge would force a CBILBO and another
//     non-conflicting register avoids it, use that register instead.  If
//     every choice forces one, allow the assignment (the paper does not
//     allocate an extra register for this).
//
// The binder relies on a PVES, so like the optimal algorithm it uses the
// minimum number of registers on every benchmark in the paper (and we test
// that property on random designs); optimality is not guaranteed in general.
//
// The scan is exact but short.  Whether any register fits v is one query:
// v's coloured neighbours all live at the most crowded step of v's
// interval, so v opens a register iff that step holds one variable per
// register.  Otherwise the ΔSD rule scans registers from the highest SD(R)
// down and stops after the SD bucket in which some register gains
// ΔSD = SD(v), the most any can gain: no lower bucket can beat it, and
// every Case 1/2 candidate lies above it.  CBILBO avoidance finishes the
// scan when it fires; first fit scans in index order.  A recording sink,
// whose `assign` events list every fitting register, gets the same scan
// and count: the rest is visited after each decision, uncounted.
// Bindings equal those of the full scan, `full_scan_bist_binding` in
// fuzz/reference.hpp, under every option set.

#include "binding/module_binding.hpp"
#include "binding/register_binding.hpp"
#include "dfg/dfg.hpp"
#include "graph/conflict.hpp"

namespace lbist {

class AlgorithmEvents;  // obs/events.hpp

/// Feature switches (all on = the paper's algorithm).
struct BistBinderOptions {
  bool sd_ordered_pves = true;
  bool delta_sd_rule = true;
  bool case_overrides = true;
  bool avoid_cbilbo = true;
};

/// Binds registers maximizing test-resource sharing and avoiding forced
/// CBILBOs.  Emits typed decision events (PVES order, ΔSD candidate sets,
/// Case 1/2 overrides, Lemma-2 checks) and the `binding.registers_scanned`
/// work count to `*events` if non-null; `binder_decision_lines`
/// (obs/events.hpp) renders the events as a log.  With every switch off
/// this is first-fit coloring in reverse PVES order.
/// Throws lbist::Error if the conflict graph carries no live intervals.
[[nodiscard]] RegisterBinding bind_registers_bist_aware(
    const Dfg& dfg, const VarConflictGraph& cg, const ModuleBinding& mb,
    const BistBinderOptions& opts = {}, AlgorithmEvents* events = nullptr);

}  // namespace lbist
