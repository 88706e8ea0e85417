#include "binding/clique_binder.hpp"

#include <span>

#include "binding/sharing.hpp"
#include "graph/clique_partition.hpp"

namespace lbist {

RegisterBinding bind_registers_clique(const Dfg& dfg,
                                      const VarConflictGraph& cg,
                                      const ModuleBinding& mb) {
  SharingAnalysis sa(dfg, mb);
  // Two variables are compatible iff their live intervals do not overlap.
  const std::span<const LiveInterval> live = cg.live_intervals();
  UndirectedGraph compat(live.size());
  for (std::size_t a = 0; a < live.size(); ++a) {
    for (std::size_t b = a + 1; b < live.size(); ++b) {
      if (!live[a].overlaps(live[b])) compat.add_edge(a, b);
    }
  }

  auto affinity = [&](std::size_t u, std::size_t v) {
    // Sharing gain of the merged pair, plus a nudge for variables produced
    // or consumed by the same module (saves interconnect).
    DynBitset merged = sa.mask(cg.vars[u]);
    merged |= sa.mask(cg.vars[v]);
    double score = SharingAnalysis::sd_of(merged);

    const Variable& a = dfg.var(cg.vars[u]);
    const Variable& b = dfg.var(cg.vars[v]);
    if (a.def.valid() && b.def.valid() &&
        mb.module_of(a.def) == mb.module_of(b.def)) {
      score += 0.5;
    }
    for (OpId ua : a.uses) {
      for (OpId ub : b.uses) {
        if (mb.module_of(ua) == mb.module_of(ub)) score += 0.25;
      }
    }
    return score;
  };

  const CliquePartition part = clique_partition(compat, affinity);

  RegisterBinding rb;
  rb.reg_of.assign(dfg.num_vars(), RegId::invalid());
  rb.regs.resize(part.cliques.size());
  for (std::size_t r = 0; r < part.cliques.size(); ++r) {
    for (std::size_t v : part.cliques[r]) {
      rb.regs[r].push_back(cg.vars[v]);
      rb.reg_of[cg.vars[v]] = RegId{static_cast<RegId::value_type>(r)};
    }
  }
  return rb;
}

}  // namespace lbist
