#pragma once
// Variable-conflict graph construction (paper Section III: register binding
// is modeled as coloring of the variable conflict graph).

#include <span>
#include <vector>

#include "dfg/dfg.hpp"
#include "dfg/lifetime.hpp"
#include "graph/undirected_graph.hpp"
#include "support/ids.hpp"

namespace lbist {

/// Conflict graph over the *allocatable* variables of a DFG, with the
/// vertex <-> variable correspondence.
struct VarConflictGraph {
  UndirectedGraph graph;
  /// vertex index -> variable.
  std::vector<VarId> vars;
  /// variable -> vertex index, or -1 if the variable is not allocatable.
  IdMap<VarId, int> vertex_of;
  /// vertex index -> live interval; the edges are exactly their overlaps.
  std::vector<LiveInterval> intervals;

  [[nodiscard]] std::size_t vertex(VarId v) const {
    return static_cast<std::size_t>(vertex_of[v]);
  }

  /// The vertices' live intervals, which the register binders read instead
  /// of the adjacency.  Throws lbist::Error if the graph was assembled by
  /// hand without them.
  [[nodiscard]] std::span<const LiveInterval> live_intervals() const;
};

/// Builds the conflict graph: one vertex per allocatable variable, an edge
/// between variables whose live intervals overlap.
[[nodiscard]] VarConflictGraph build_conflict_graph(
    const Dfg& dfg, const IdMap<VarId, LiveInterval>& lifetimes);

}  // namespace lbist
