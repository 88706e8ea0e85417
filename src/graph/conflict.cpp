#include "graph/conflict.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace lbist {

std::span<const LiveInterval> VarConflictGraph::live_intervals() const {
  LBIST_CHECK(intervals.size() == graph.num_vertices(),
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
  const std::size_t n = out.vars.size();

  // Sweep line over births: a pair overlaps iff, when the later-born
  // vertex arrives, the earlier one is still alive (death > birth).  The
  // quadratic pair scan this replaces dominated whole-pipeline time beyond
  // a few thousand variables.
  std::vector<std::uint32_t> by_birth(n);
  for (std::size_t i = 0; i < n; ++i) {
    by_birth[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(by_birth.begin(), by_birth.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return out.intervals[a].birth < out.intervals[b].birth;
            });

  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<std::uint32_t> active;  // sweep front, pruned lazily
  for (const std::uint32_t v : by_birth) {
    const LiveInterval iv = out.intervals[v];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const std::uint32_t u = active[i];
      const LiveInterval iu = out.intervals[u];
      if (iu.death <= iv.birth) continue;  // u expired; drop from the front
      active[keep++] = u;
      // iu.birth <= iv.birth and iu.death > iv.birth: overlap iff v's
      // interval is non-degenerate past u's birth.
      if (iu.birth < iv.death) {
        edges.emplace_back(u, v);
      }
    }
    active.resize(keep);
    active.push_back(v);
  }

  out.graph = UndirectedGraph(n, edges);
  return out;
}

}  // namespace lbist
