#pragma once
// Interval-native chordal machinery for variable-conflict graphs.
//
// A conflict graph built from live intervals (birth, death] is an interval
// graph, so the register binders' questions have answers that read only the
// interval endpoints, never the bitset adjacency:
//
//  * Elimination order.  By the Helly property, v is simplicial among the
//    alive vertices iff
//        max{b_u : u alive, b_u < d_v}  <  min{d_u : u alive, d_u > b_v}.
//    A vertex failing this is blocked by one alive birth and one alive death
//    and is re-tested only when the last alive interval with that birth or
//    that death is eliminated.  The order pops the simplicial vertex of
//    smallest (rank, index), exactly like `perfect_elimination_order`, so
//    the two produce the same order.
//  * MCS(v), the size of a largest clique through v: the largest number of
//    intervals live at one step of (b_v, d_v], a range maximum over prefix
//    coverage.
//  * Register feasibility: v fits a register iff its interval overlaps none
//    of the register's members (`DisjointIntervals`).
//
// Endpoints are indexed by rank, not by step value, so memory is O(n)
// whatever the step numbers are.  The generic routines in graph/chordal.hpp
// stay as the reference these are tested against.  Every interval must be
// non-empty (birth < death), as `compute_lifetimes` guarantees; an empty
// one throws lbist::Error.

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <span>
#include <vector>

#include "dfg/lifetime.hpp"

namespace lbist {

/// The elimination order `perfect_elimination_order` builds on the
/// intersection graph of `intervals`: at every step the simplicial vertex
/// with the smallest `priority_rank` (ties by vertex index).  An empty
/// `priority_rank` means "by vertex index".
[[nodiscard]] std::vector<std::size_t> interval_elimination_order(
    std::span<const LiveInterval> intervals,
    const std::vector<std::size_t>& priority_rank = {});

/// For each vertex v, the largest number of intervals live at one step of
/// v's interval — the paper's MCS(v), equal to `max_clique_through_vertex`.
[[nodiscard]] std::vector<std::size_t> interval_max_clique_through_vertex(
    std::span<const LiveInterval> intervals);

/// The live intervals held by one register: pairwise disjoint, kept sorted
/// by birth (hence also by death).
class DisjointIntervals {
 public:
  /// True if `iv` overlaps a member.  Only the last member born before iv
  /// dies can: every earlier member dies before that one is born.
  [[nodiscard]] bool overlaps(const LiveInterval& iv) const {
    const auto after = std::partition_point(
        members_.begin(), members_.end(),
        [&](const LiveInterval& m) { return m.birth < iv.death; });
    return after != members_.begin() && std::prev(after)->death > iv.birth;
  }

  /// Adds `iv`, which must overlap no member.
  void insert(const LiveInterval& iv) {
    members_.insert(
        std::partition_point(
            members_.begin(), members_.end(),
            [&](const LiveInterval& m) { return m.birth < iv.birth; }),
        iv);
  }

 private:
  std::vector<LiveInterval> members_;
};

}  // namespace lbist
