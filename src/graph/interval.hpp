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
//    intervals live at one step of (b_v, d_v], a range maximum over live
//    counts (`IntervalLoad`).
//  * Register feasibility: v fits a register iff its interval overlaps none
//    of the register's members (`DisjointIntervals`).  When v is coloured
//    in reverse elimination order, whether *any* register fits is one
//    `IntervalLoad` query: see bist_aware_binder.cpp.
//
// Endpoints are indexed by rank, not by step value, so memory is O(n)
// whatever the step numbers are.  The generic routines in graph/chordal.hpp,
// run on `interval_graph`, stay as the reference these are tested against.
// Every interval must be non-empty (birth < death), as `compute_lifetimes`
// guarantees; an empty one throws lbist::Error.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "dfg/lifetime.hpp"
#include "graph/undirected_graph.hpp"

namespace lbist {

/// The intersection graph of `intervals`: an edge between every two that
/// overlap.  Dense rows and an O(n^2) pair test; it feeds the generic
/// routines of graph/chordal.hpp, which the tests and demos use as the
/// reference for the ones below.  Synthesis never builds it.
[[nodiscard]] UndirectedGraph interval_graph(
    std::span<const LiveInterval> intervals);

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

/// Live counts of a growing subset of a fixed set of intervals: `max_live(v)`
/// is the largest number of added intervals live at one step of interval
/// v.  Counts rise only at the step just after a birth, so they are kept
/// per distinct birth, in a range-add / range-max segment tree over birth
/// ranks: O(n) memory whatever the step values, O(log n) per call.
class IntervalLoad {
 public:
  explicit IntervalLoad(std::span<const LiveInterval> intervals);

  /// Adds interval v to the counted subset.
  void add(std::size_t v) { add(1, 0, leaves_, lo_[v], hi_[v]); }

  /// The most added intervals live at one step of interval v.
  [[nodiscard]] std::size_t max_live(std::size_t v) const {
    return query(1, 0, leaves_, lo_[v], hi_[v]);
  }

 private:
  void add(std::size_t node, std::uint32_t nl, std::uint32_t nr,
           std::uint32_t l, std::uint32_t r);
  [[nodiscard]] std::size_t query(std::size_t node, std::uint32_t nl,
                                  std::uint32_t nr, std::uint32_t l,
                                  std::uint32_t r) const;

  /// Per vertex, the birth ranks its interval covers: [lo, hi).
  std::vector<std::uint32_t> lo_;
  std::vector<std::uint32_t> hi_;
  std::uint32_t leaves_ = 0;  ///< distinct births
  /// Per node: the largest count below it, and the adds covering all of it.
  std::vector<std::uint32_t> max_;
  std::vector<std::uint32_t> whole_;
};

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
