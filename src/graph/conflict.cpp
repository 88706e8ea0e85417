#include "graph/conflict.hpp"

#include "support/check.hpp"

namespace lbist {

std::span<const LiveInterval> VarConflictGraph::live_intervals() const {
  LBIST_CHECK(intervals.size() == vars.size(),
              "conflict graph carries no live intervals (build it with "
              "build_conflict_graph)");
  return intervals;
}

VarConflictGraph build_conflict_graph(
    const Dfg& dfg, const IdMap<VarId, LiveInterval>& lifetimes) {
  VarConflictGraph out;
  out.vertex_of.assign(dfg.num_vars(), -1);
  for (const auto& v : dfg.vars()) {
    if (!v.allocatable()) continue;
    out.vertex_of[v.id] = static_cast<int>(out.vars.size());
    out.vars.push_back(v.id);
    out.intervals.push_back(lifetimes[v.id]);
  }
  return out;
}

}  // namespace lbist
