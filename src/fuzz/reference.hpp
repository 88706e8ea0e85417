#pragma once
// Full-scan references for the fast paths: the straightforward form of
// each algorithm, kept only as the differential oracle the tests and the
// fuzz campaign hold the fast path to.
//
//   full_scan_greedy        the greedy BIST allocation over the full
//                           embedding product (`solve_greedy` keeps only a
//                           few options per register role and port)
//   full_scan_bist_binding  the BIST-aware register binder testing every
//                           open register for every variable
//                           (`bind_registers_bist_aware` scans registers in
//                           SD order and stops early)
//   max_clique              Bron-Kerbosch with pivoting on any graph: the
//                           exact clique number the chordal machinery gets
//                           from a PVES, and the register-count lower bound
//                           on a loop's non-chordal unit-conflict graph

#include <cstddef>
#include <vector>

#include "binding/bist_aware_binder.hpp"
#include "bist/allocator.hpp"
#include "bist/area_model.hpp"
#include "graph/undirected_graph.hpp"
#include "rtl/datapath.hpp"

namespace lbist {

/// The greedy BIST allocation over the full embedding product, built from
/// rtl/ipath's enumerators, RoleFlags and AreaModel::role_extra only: each
/// module in turn takes the first embedding, in enumeration order, of
/// least (Δarea, ΔCBILBO, Δmodified).  `solve_greedy` must reproduce it.
[[nodiscard]] BistSolution full_scan_greedy(const Datapath& dp,
                                            const AreaModel& model,
                                            bool transparent);

/// The BIST-aware binder with a full scan: for each variable, in reverse
/// PVES order, every open register is tested and every one that fits is
/// scored.  `bind_registers_bist_aware` must return the same binding under
/// every option set.  Emits no events.
[[nodiscard]] RegisterBinding full_scan_bist_binding(
    const Dfg& dfg, const VarConflictGraph& cg, const ModuleBinding& mb,
    const BistBinderOptions& opts = {});

/// Size of a maximum clique (exact; exponential worst case — intended for
/// allocation-sized graphs).
[[nodiscard]] std::size_t max_clique_size(const UndirectedGraph& g);

/// One maximum clique's vertices, sorted.
[[nodiscard]] std::vector<std::size_t> max_clique(const UndirectedGraph& g);

}  // namespace lbist
